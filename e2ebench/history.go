package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/problem"
)

// obs is one observation of a session's history in the form both the
// in-process engine and the HTTP history route can be reduced to, so the
// two paths hash and score identically.
type obs struct {
	Iter    int
	X       []float64
	Rung    int
	Eval    problem.Evaluation
	CumCost float64
}

func fromCore(h []core.Observation) []obs {
	out := make([]obs, len(h))
	for i, o := range h {
		out[i] = obs{Iter: o.Iter, X: o.X, Rung: int(o.Fid), Eval: o.Eval, CumCost: o.CumCost}
	}
	return out
}

func fromAPI(h []api.HistoryObservation) []obs {
	out := make([]obs, len(h))
	for i, o := range h {
		out[i] = obs{
			Iter: o.Iter, X: o.X, Rung: o.Fidelity, CumCost: o.CumCost,
			Eval: problem.Evaluation{Objective: o.Objective, Constraints: o.Constraints, Failed: o.Failed},
		}
	}
	return out
}

// historyHash is a SHA-256 over every bit of the trajectory: iteration,
// rung, point, outputs, failure flag and cumulative cost, in order. Equal
// hashes mean bit-identical trajectories.
func historyHash(h []obs) string {
	d := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		d.Write(buf[:])
	}
	f := func(v float64) { word(math.Float64bits(v)) }
	word(uint64(len(h)))
	for _, o := range h {
		word(uint64(int64(o.Iter)))
		word(uint64(o.Rung))
		word(uint64(len(o.X)))
		for _, x := range o.X {
			f(x)
		}
		f(o.Eval.Objective)
		word(uint64(len(o.Eval.Constraints)))
		for _, c := range o.Eval.Constraints {
			f(c)
		}
		if o.Eval.Failed {
			word(1)
		} else {
			word(0)
		}
		f(o.CumCost)
	}
	return hex.EncodeToString(d.Sum(nil))
}

// quality is a finished session's outcome in the paper's terms.
type quality struct {
	// Best is the objective of the final best target-rung observation:
	// the lowest feasible objective when a feasible one exists (Feasible),
	// otherwise that of the least-violating one.
	Feasible bool
	Best     float64
	// SimsToBest is the cumulative cost, in equivalent target-rung
	// simulations, at the observation that became the final best — the
	// quantity of the paper's Tables 1–2.
	SimsToBest float64
}

// score evaluates a finished history whose target rung is top.
func score(h []obs, top int) quality {
	var q quality
	var best problem.Evaluation
	found := false
	for _, o := range h {
		if o.Rung != top {
			continue
		}
		if !found || problem.Better(o.Eval, best) {
			best, found = o.Eval, true
			q.SimsToBest = o.CumCost
		}
	}
	q.Feasible, q.Best = best.Feasible(), best.Objective
	return q
}
