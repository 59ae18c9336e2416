package experiment

// Result is a finished experiment: a rendered table plus the key scalar
// metrics tests assert on.
type Result struct {
	ID      string
	Table   *Table
	Metrics map[string]float64
}

// Spec names a registered experiment.
type Spec struct {
	// ID is the experiment identifier from the claim index in the
	// package comment (E01..E14, A01..A02).
	ID string
	// Title is a one-line description.
	Title string
	// Run executes the experiment with its default options.
	Run func() (*Result, error)
}

// Registry lists every experiment in claim-index order. Each entry runs
// with defaults sized to finish in seconds on a laptop; the options
// structs allow larger sweeps.
func Registry() []Spec {
	return []Spec{
		{ID: "E01", Title: "Infinite-population regret vs 3*delta (Theorem 4.3)", Run: func() (*Result, error) { return E01InfiniteRegret(DefaultE01Options()) }},
		{ID: "E02", Title: "Time-averaged best-option mass (Theorem 4.3, part 2)", Run: func() (*Result, error) { return E02BestOptionMass(DefaultE02Options()) }},
		{ID: "E03", Title: "Finite-population regret vs 6*delta (Theorem 4.4)", Run: func() (*Result, error) { return E03FiniteRegret(DefaultE03Options()) }},
		{ID: "E04", Title: "Finite/infinite coupling closeness (Lemma 4.5)", Run: func() (*Result, error) { return E04Coupling(DefaultE04Options()) }},
		{ID: "E05", Title: "Two-stage ablation: sampling-only and adoption-only fail (Section 3)", Run: func() (*Result, error) { return E05Ablation(DefaultE05Options()) }},
		{ID: "E06", Title: "Nonuniform starts and epoch restarts (Theorem 4.6, Section 4.3.2)", Run: func() (*Result, error) { return E06Epochs(DefaultE06Options()) }},
		{ID: "E07", Title: "Group dynamics vs tuned Hedge and bandit baselines (Section 2.2)", Run: func() (*Result, error) { return E07Baselines(DefaultE07Options()) }},
		{ID: "E08", Title: "Ellison-Fudenberg word-of-mouth reduction (Section 2.1, ex. 2)", Run: func() (*Result, error) { return E08WordOfMouth(DefaultE08Options()) }},
		{ID: "E09", Title: "Krafft et al. investor copying (Section 2.1, ex. 1)", Run: func() (*Result, error) { return E09Investors(DefaultE09Options()) }},
		{ID: "E10", Title: "Network topology extension (Conclusion)", Run: func() (*Result, error) { return E10Topology(DefaultE10Options()) }},
		{ID: "E11", Title: "Time-varying qualities (Conclusion)", Run: func() (*Result, error) { return E11Drift(DefaultE11Options()) }},
		{ID: "E12", Title: "Role of the exploration rate mu (Section 2.1)", Run: func() (*Result, error) { return E12MuSweep(DefaultE12Options()) }},
		{ID: "E13", Title: "Stage concentration vs Chernoff bounds (Propositions 4.1-4.3)", Run: func() (*Result, error) { return E13Concentration(DefaultE13Options()) }},
		{ID: "E14", Title: "Distributed low-memory MWU protocol (Section 1)", Run: func() (*Result, error) { return E14Protocol(DefaultE14Options()) }},
	}
}
