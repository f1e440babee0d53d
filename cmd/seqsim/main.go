// Command seqsim runs the theory-validation experiments T1–T8
// (EXPERIMENTS.md, "Theory validations") on the paper's sequential
// processes:
//
//	t1  Theorem 1   — avg rank O(n/β²) and max rank O(n log n / β) at every t
//	t2  Theorem 2   — rank-distribution equivalence of the exponential process
//	t3  Theorem 3   — potential Γ(t) bounded by C·n along the run
//	t4  Theorem 6   — single-choice divergence exponent ≈ 1/2
//	t5  Appendix A  — exact round-robin reduction to two-choice balls-into-bins
//	t6  §6          — the process on graphs: rank cost vs expansion
//	t7  §2          — Karp–Zhang own-queue removals, with and without delays
//	t8  §5/App. C   — concurrency staleness (k async threads) and general
//	                  (non-FIFO) priority insertions
//
// Usage:
//
//	seqsim [-exp all|t1|t2|t3|t4|t5|t6|t7|t8] [-seed 42]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"powerchoice/internal/bench"
	"powerchoice/internal/seqproc"
	"powerchoice/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "seqsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("seqsim", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: all, t1, t2, t3, t4, t5")
	seed := fs.Uint64("seed", 42, "root random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	run := map[string]func(uint64) error{
		"t1": expT1, "t2": expT2, "t3": expT3, "t4": expT4, "t5": expT5,
		"t6": expT6, "t7": expT7, "t8": expT8,
	}
	if *exp == "all" {
		for _, name := range []string{"t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8"} {
			if err := run[name](*seed); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	f, ok := run[*exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return f(*seed)
}

// expT1 sweeps n and β and reports the stationary average and max ranks,
// normalised by the theorem's bounds.
func expT1(seed uint64) error {
	fmt.Println("== T1: Theorem 1 — rank bounds at every time t ==")
	tb := bench.NewTable("n", "beta", "gamma", "avg_rank", "avg/n", "max_top_rank", "max/(n ln n)")
	for _, n := range []int{32, 64, 128, 256} {
		for _, beta := range []float64{0.5, 1} {
			for _, gamma := range []float64{0, 0.25} {
				cfg := seqproc.Config{N: n, Beta: beta, Gamma: gamma, Seed: seed}
				if gamma > 0 {
					cfg.Insert = seqproc.InsertBiased
				}
				series, err := seqproc.Run(seqproc.RunSpec{
					Cfg:         cfg,
					Prefill:     n * 64,
					Steps:       n * 512,
					SampleEvery: n * 16,
					Reinsert:    true,
				})
				if err != nil {
					return err
				}
				var maxTop float64
				for _, m := range series.MaxTopRank {
					if m > maxTop {
						maxTop = m
					}
				}
				avg := series.Overall.Mean()
				tb.AddRow(n, beta, gamma, avg, avg/float64(n),
					maxTop, maxTop/(float64(n)*math.Log(float64(n))))
			}
		}
	}
	fmt.Print(tb.String())
	fmt.Println("expect: avg/n roughly constant per β; max/(n ln n) bounded.")
	fmt.Println()
	return nil
}

// expT2 compares the bin-of-rank distribution of the original and
// exponential processes against π by chi-square, and checks the coupled
// per-step costs coincide.
func expT2(seed uint64) error {
	fmt.Println("== T2: Theorem 2 — rank distribution equivalence ==")
	const n, m, trials = 4, 64, 4000
	tb := bench.NewTable("gamma", "rank", "chi2_orig", "p_orig", "chi2_exp", "p_exp")
	for _, gamma := range []float64{0, 0.4} {
		ranks := []int{1, m / 2, m}
		orig, expp, pis, err := seqproc.BinOfRankCounts(n, m, trials, gamma, ranks, seed)
		if err != nil {
			return err
		}
		expected := make([]float64, n)
		for i, pi := range pis {
			expected[i] = pi * trials
		}
		for idx, r := range ranks {
			c1, p1, err := stats.ChiSquare(orig[idx], expected)
			if err != nil {
				return err
			}
			c2, p2, err := stats.ChiSquare(expp[idx], expected)
			if err != nil {
				return err
			}
			tb.AddRow(gamma, r, c1, p1, c2, p2)
		}
	}
	fmt.Print(tb.String())
	origC, expC, err := seqproc.CoupledCosts(8, 1024, 0.5, 512, seed)
	if err != nil {
		return err
	}
	same := 0
	for i := range origC {
		if origC[i] == expC[i] {
			same++
		}
	}
	fmt.Printf("coupled costs identical: %d/%d steps\n", same, len(origC))
	fmt.Println("expect: all p-values comfortably above 0.001; coupling identical at every step.")
	fmt.Println()
	return nil
}

// expT3 samples Γ(t) along exponential-process runs. The single-choice
// (β=0) rows are the control: without the two-choice preference the top
// weights spread out and Γ grows, while every β>0 row stays pinned near the
// 2n floor (Γ = 2n exactly when all tops are equal).
func expT3(seed uint64) error {
	fmt.Println("== T3: Theorem 3 — potential Γ(t) = O(n) for all t ==")
	tb := bench.NewTable("n", "beta", "gamma", "max Γ(t)", "max Γ/n", "max spread")
	alpha := seqproc.AlphaFor(1, 0) // common α so rows are comparable
	for _, n := range []int{64, 128} {
		for _, beta := range []float64{0, 0.5, 1} {
			for _, gamma := range []float64{0, 0.25} {
				m := n * 256
				_, gs, spreads, err := seqproc.PotentialSeries(n, m, beta, gamma, alpha, m/2, n, seed)
				if err != nil {
					return err
				}
				var maxG, maxS float64
				for i, g := range gs {
					if g > maxG {
						maxG = g
					}
					if spreads[i] > maxS {
						maxS = spreads[i]
					}
				}
				tb.AddRow(n, beta, gamma, maxG, maxG/float64(n), maxS)
			}
		}
	}
	fmt.Print(tb.String())
	fmt.Println("expect: β>0 rows pinned near Γ/n = 2 uniformly in t; β=0 rows grow above it.")
	fmt.Println()
	return nil
}

// expT4 fits the growth exponent of the average removal rank for the
// single-choice and two-choice steady-state processes.
func expT4(seed uint64) error {
	fmt.Println("== T4: Theorem 6 — single-choice divergence ==")
	tb := bench.NewTable("policy", "n", "steps", "fit_exponent", "expect")
	const n = 32
	const steps = 120000
	e0, _, err := seqproc.DivergenceFit(n, 0, steps, seed)
	if err != nil {
		return err
	}
	tb.AddRow("single-choice (β=0)", n, steps, e0, "≈ 0.5")
	e1, _, err := seqproc.DivergenceFit(n, 1, steps, seed+1)
	if err != nil {
		return err
	}
	tb.AddRow("two-choice (β=1)", n, steps, e1, "≈ 0")
	fmt.Print(tb.String())
	fmt.Println()
	return nil
}

// expT6 runs the §6 graph-process extension: removal choice restricted to
// the edges of a topology. Expansion governs how much of the power of
// choice survives.
func expT6(seed uint64) error {
	fmt.Println("== T6: §6 extension — the process on graphs ==")
	tb := bench.NewTable("topology", "n", "edges", "avg_rank", "avg/n", "max_top_rank")
	for _, n := range []int{32, 64} {
		type entry struct {
			name  string
			build func() (*seqproc.GraphTopology, error)
		}
		for _, e := range []entry{
			{"cycle", func() (*seqproc.GraphTopology, error) { return seqproc.CycleTopology(n) }},
			{"regular-4", func() (*seqproc.GraphTopology, error) { return seqproc.RegularTopology(n, 4, seed) }},
			{"regular-8", func() (*seqproc.GraphTopology, error) { return seqproc.RegularTopology(n, 8, seed) }},
			{"complete", func() (*seqproc.GraphTopology, error) { return seqproc.CompleteTopology(n) }},
		} {
			topo, err := e.build()
			if err != nil {
				return err
			}
			mean, maxTop, err := seqproc.GraphRankSummary(topo, 1, 64, n*384, seed)
			if err != nil {
				return err
			}
			tb.AddRow(e.name, n, topo.NumEdges(), mean, mean/float64(n), maxTop)
		}
	}
	fmt.Print(tb.String())
	fmt.Println("expect: cycle worst, expanders approach the complete graph (= the paper's process).")
	fmt.Println()
	return nil
}

// expT7 runs the §2 Karp–Zhang strategy with and without processor delays.
func expT7(seed uint64) error {
	fmt.Println("== T7: §2 — Karp–Zhang own-queue removals under delays ==")
	tb := bench.NewTable("policy", "n", "stall", "avg_rank", "max_rank")
	const n = 16
	const steps = n * 512
	for _, stall := range []int{0, 256, 1024} {
		mean, max, err := seqproc.KarpZhangRun(n, 64, steps, stall, seed)
		if err != nil {
			return err
		}
		tb.AddRow("karp-zhang", n, stall, mean, max)
	}
	series, err := seqproc.Run(seqproc.RunSpec{
		Cfg:         seqproc.Config{N: n, Beta: 1, Seed: seed},
		Prefill:     64 * n,
		Steps:       steps,
		SampleEvery: steps / 4,
		Reinsert:    true,
	})
	if err != nil {
		return err
	}
	tb.AddRow("two-choice", n, 0, series.Overall.Mean(), series.Overall.Max())
	fmt.Print(tb.String())
	fmt.Println("expect: rank grows with the stall; two-choice beats even the synchronous strategy.")
	fmt.Println()
	return nil
}

// expT8 probes the two assumptions the theorems make and practice drops:
// sequential execution (vs k asynchronous threads with stale top reads)
// and FIFO label insertion (vs arbitrary priorities).
func expT8(seed uint64) error {
	fmt.Println("== T8: §5/App. C — beyond the analysed assumptions ==")
	const n = 16
	const steps = n * 512
	tb := bench.NewTable("variant", "param", "avg_rank", "avg/n")
	for _, k := range []int{1, 4, 16, 64} {
		w, err := seqproc.ConcurrentRankSummary(n, k, 1, 64, steps, seed)
		if err != nil {
			return err
		}
		tb.AddRow("concurrent (k threads)", k, w.Mean(), w.Mean()/float64(n))
	}
	g, err := seqproc.NewGeneral(n, 1<<20, 1, seed)
	if err != nil {
		return err
	}
	for i := 0; i < n*64; i++ {
		if _, err := g.InsertUniformRandom(); err != nil {
			return err
		}
	}
	var sum float64
	for s := 0; s < steps; s++ {
		_, rank, ok := g.Remove()
		if !ok {
			return fmt.Errorf("general process drained at %d", s)
		}
		sum += float64(rank)
		if _, err := g.InsertUniformRandom(); err != nil {
			return err
		}
	}
	tb.AddRow("general priorities", "-", sum/steps, sum/steps/float64(n))
	fmt.Print(tb.String())
	fmt.Println("expect: gentle growth in k; general-priority churn stays a small multiple of n.")
	fmt.Println()
	return nil
}

// expT5 runs the exact coupling of the Appendix A reduction.
func expT5(seed uint64) error {
	fmt.Println("== T5: Appendix A — round-robin reduction ==")
	tb := bench.NewTable("n", "steps", "mismatches")
	for _, n := range []int{8, 32, 128} {
		mism, err := seqproc.ReductionCoupling(n, n*256, n*128, seed)
		if err != nil {
			return err
		}
		tb.AddRow(n, n*128, mism)
	}
	fmt.Print(tb.String())
	fmt.Println("expect: zero mismatches — the reduction is exact, step by step.")
	fmt.Println()
	return nil
}
