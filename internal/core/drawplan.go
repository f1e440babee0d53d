package core

import "powerchoice/internal/xrand"

// coinKind classifies a biased coin at plan-build time so the hot path never
// re-examines the probability: degenerate probabilities compile to branches
// (no generator advance at all), and only a genuinely fractional probability
// costs a draw — one Uint64 compared against a precomputed 64-bit threshold,
// with no float conversion (xrand.Coin).
type coinKind uint8

const (
	// coinNever: probability 0 (or the coin's precondition fails: the β coin
	// with d < 2). No draw, always false.
	coinNever coinKind = iota
	// coinAlways: probability 1. No draw, always true.
	coinAlways
	// coinDraw: fractional probability; flip via the integer threshold.
	coinDraw
)

// drawPlan is the precomputed sampling plan: the β coin's kind and integer
// threshold. d and β are fixed at construction, so New compiles the plan
// once and each selector copies it at init; in the common β=1 d=2 case a
// delete-side selection is exactly one generator advance — the lane-split
// pair draw — with no float ops, no division, and no coin draws at all.
//
// The selector draws indices via Source.Intn and Source.TwoDistinct32
// rather than through a precomputed bounded-draw plan: Intn's fast-accept
// path is already one multiply and one compare (EXPERIMENTS.md, "Draw-fused
// sampling").
type drawPlan struct {
	beta    coinKind
	betaThr uint64
}

// buildDrawPlan compiles the β coin. It degenerates to coinNever when
// d < 2 (no choice to apply) or β ≤ 0, and to coinAlways at β ≥ 1 — the
// paper's pure two-choice rule, which is also the default configuration, so
// the common plan flips no coins at all.
func buildDrawPlan(choices int, beta float64) drawPlan {
	switch {
	case choices < 2 || beta <= 0:
		return drawPlan{beta: coinNever}
	case beta >= 1:
		return drawPlan{beta: coinAlways}
	default:
		return drawPlan{beta: coinDraw, betaThr: xrand.CoinThreshold(beta)}
	}
}
