#pragma once
// The paper's constants, kept in one place so every bench and test pins the
// same formulas.
//
// Radii (Section 4, proof of Theorem 4.1):
//   m3.2(C_t) = f(5) + 2     (Lemma 3.2, local 1-cuts)
//   m3.3(C_t) = f(11) + 5    (Lemma 3.3, Claim 5.13; §5.3 once says f(11)+4 —
//                             we use the +5 version actually proved)
// with the control function f(r) = (5r + 18) t of K_{2,t}-minor-free classes
// ([3, Lemma 7.1]; these classes have asymptotic dimension d = 1).
//
// Charging constants:
//   c3.2(d) = 3 (d + 1),  c3.3(d) = 22 (d + 1).
//
// Reproduction note: Theorem 4.1 states the ratio c3.2(1) + c3.3(1) + 1 = 50,
// but with the printed constants the sum is 6 + 44 + 1 = 51. We expose both
// the claimed 50 and the derived value; docs/REPRODUCTION.md (note 1)
// discusses the gap.

namespace lmds::core {

/// f(r) = (5r + 18) t — the control function witnessing asymptotic
/// dimension 1 for K_{2,t}-minor-free graphs.
struct ControlFunction {
  int t = 2;

  int operator()(int r) const { return (5 * r + 18) * t; }
};

/// All Theorem 4.1 / Lemma constants for the class C_t of K_{2,t}-minor-free
/// graphs (asymptotic dimension d; d = 1 for C_t).
struct PaperConstants {
  int t = 2;
  int d = 1;

  /// Radius for the local 1-cut step: f(5) + 2 = 43t + 2.
  int m32() const { return ControlFunction{t}(5) + 2; }

  /// Radius for the interesting 2-cut step: f(11) + 5 = 73t + 5.
  int m33() const { return ControlFunction{t}(11) + 5; }

  /// Lemma 3.2 charging constant: #local 1-cuts <= c32() * MDS(G).
  int c32() const { return 3 * (d + 1); }

  /// Lemma 3.3 charging constant: #interesting vertices <= c33() * MDS(G).
  int c33() const { return 22 * (d + 1); }

  /// Ratio implied by the printed constants: c32 + c33 + 1 (= 51 for d = 1).
  int derived_ratio() const { return c32() + c33() + 1; }

  /// Ratio claimed by Theorem 4.1.
  static constexpr int kClaimedRatio = 50;

  /// Theorem 4.4 ratios.
  int theorem44_mds_ratio() const { return 2 * t - 1; }
  int theorem44_mvc_ratio() const { return t; }
  static constexpr int kTheorem44Rounds = 3;
};

}  // namespace lmds::core
