package core

import "powerchoice/internal/xrand"

// coinKind classifies a biased coin at plan-build time so the hot path never
// re-examines the probability: degenerate probabilities compile to branches
// (no generator advance at all), and only a genuinely fractional probability
// costs a draw — one Uint64 compared against a precomputed 64-bit threshold,
// with no float conversion (xrand.Coin).
type coinKind uint8

const (
	// coinNever: probability 0 (or the coin's precondition fails, e.g. the
	// β coin with d < 2, the locality coin unsharded). No draw, always false.
	coinNever coinKind = iota
	// coinAlways: probability 1. No draw, always true.
	coinAlways
	// coinDraw: fractional probability; flip via the integer threshold.
	coinDraw
)

// drawPlan is the precomputed sampling plan carried by a topology snapshot:
// the β and locality coin kinds and integer thresholds, compiled once per
// epoch (newTopology) and copied into each selector at repin, so in the
// common β=1 d=2 case a delete-side selection is exactly one generator
// advance — the lane-split pair draw — with no float ops, no division, and
// no coin draws at all.
//
// An earlier iteration also carried a per-snapshot bounded-draw plan
// (hoisted Lemire threshold + power-of-two mask) and fused its mask/lane
// fast paths into the selector. End-to-end A/B runs of BenchmarkHandleMixed
// measured that variant consistently slower than the hoisted-threshold Intn
// draws: Intn's fast-accept path is already one multiply and one compare,
// and the extra plan branches plus the 40-byte by-value plan traffic cost
// more than the multiply they saved. The selector therefore draws via
// Source.Intn and Source.TwoDistinct32, and the plan type, left with no
// caller, was deleted (EXPERIMENTS.md, "Draw-fused sampling").
type drawPlan struct {
	beta     coinKind
	betaThr  uint64
	local    coinKind
	localThr uint64
}

// buildDrawPlan compiles the sampling parameters of one snapshot. The β coin
// degenerates to coinNever when d < 2 (no choice to apply) or β ≤ 0, and to
// coinAlways at β ≥ 1 — the paper's pure two-choice rule, which is also the
// default configuration, so the common plan flips no coins at all. The
// locality coin mirrors selector.local's old short-circuits: unsharded
// snapshots or a zero bias never draw, a saturated bias always scopes local.
func buildDrawPlan(shards, choices int, beta, localBias float64) drawPlan {
	var p drawPlan
	switch {
	case choices < 2 || beta <= 0:
		p.beta = coinNever
	case beta >= 1:
		p.beta = coinAlways
	default:
		p.beta = coinDraw
		p.betaThr = xrand.CoinThreshold(beta)
	}
	switch {
	case shards <= 1 || localBias <= 0:
		p.local = coinNever
	case localBias >= 1:
		p.local = coinAlways
	default:
		p.local = coinDraw
		p.localThr = xrand.CoinThreshold(localBias)
	}
	return p
}
