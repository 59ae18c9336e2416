// Package experiment is the benchmark harness: it defines one named,
// reproducible experiment per quantitative claim in the paper (see the
// claim index below), runs parameter sweeps with independent seeds in
// parallel, and renders paper-style tables. RunSweep, the replication
// executor the serving layer runs every job through, lives here too.
//
// # Claim index
//
// Each entry names an experiment, the paper claim it reproduces, and
// the test that asserts that claim on scaled-down options. Registry
// lists E01–E14 and Ablations lists A01–A02 in this order; cmd/repro
// prints their tables. TestAllDefaultExperimentsRun runs every E
// experiment at its default options and replays it bit for bit, and
// TestBoundComplianceAcrossDefaults checks the E01, E03 and E06 bounds
// at those options.
//
//   - E01, Theorem 4.3: the infinite-population dynamics' average
//     regret is at most 3δ once T ≥ ln m/δ². TestE01SmallRun.
//   - E02, Theorem 4.3, second claim: the time-averaged mass on the
//     best option is at least 1 − 3δ/(η₁−η₂). TestE02SmallRun.
//   - E03, Theorem 4.4: the finite-population regret is at most 6δ for
//     large N. TestE03SmallRun.
//   - E04, Lemma 4.5: the coupled finite and infinite trajectories stay
//     multiplicatively close, and the deviation shrinks as N grows.
//     TestE04SmallRun.
//   - E05, Section 3: sampling alone (pure copying) and adoption alone
//     (µ = 1) both fall short of the full two-stage dynamics.
//     TestE05SmallRun.
//   - E06, Theorem 4.6 and Section 4.3.2: from the adversarial start at
//     the popularity floor ζ = µ(1−β)/4m, the regret over one epoch and
//     over chained epochs is at most 3δ. TestE06SmallRun.
//   - E07, Section 2.2: Hedge tuned to the horizon, which stores a
//     weight vector, has lower regret than the socially constrained
//     group. TestE07SmallRun.
//   - E08, Section 2.1, example 2: the Ellison–Fudenberg shock rule
//     induces the symmetric binary rule (α ≈ 1−β < β), and the group
//     concentrates on the better option under it. TestE08SmallRun, and
//     TestInducedLinearMatchesAnalytic in internal/agent.
//   - E09, Section 2.1, example 1: Krafft et al.'s investor copying
//     concentrates on the good asset. TestE09SmallRun.
//   - E10, Conclusion: on a social network the dynamics still
//     concentrate on the best option, and the complete graph gets there
//     no slower than the ring. TestE10SmallRun.
//   - E11, Conclusion: drifting qualities raise the dynamic regret.
//     TestE11SmallRun.
//   - E12, Section 2.1: with µ = 0 a finite group can fixate on a worse
//     option; µ = 1 spreads the mass. TestE12SmallRun.
//   - E13, Propositions 4.1–4.3: both stages' counts stay within their
//     concentration bounds, more tightly as N grows. TestE13SmallRun.
//   - E14, Section 1: the distributed protocol, with one integer of
//     state per node and at most two messages per node per round,
//     concentrates on the best option, also after a 10% crash wave.
//     TestE14SmallRun.
//   - A01, design ablation: the per-agent and aggregate engines agree in
//     law, and the aggregate engine is faster. TestA01EnginesAgree.
//   - A02, design ablation: the direct, geometric and BTRS binomial
//     samplers match the binomial's mean and variance.
//     TestA02BinomialAccuracy.
//
// Two design ablations are timing only, so they run as benchmarks
// beside their engines: BenchmarkAblationEngines in internal/population
// (A01's cost side) and BenchmarkAblationLogSpace in internal/infinite
// (normalized against raw weights).
package experiment
