package main

import (
	"fmt"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/optimize"
)

// tuning is the optimizer configuration of a workload's sessions. It maps
// onto both core.Config (in-process) and api.CreateSessionRequest (fleet),
// so a fleet session re-run in-process uses exactly the same settings.
type tuning struct {
	Budget              float64
	InitLow, InitHigh   int
	MSPStarts, MSPIters int
	GPMaxIter           int
	Incremental         bool
	RefitEvery          int
	Workers             int
}

func (t tuning) coreConfig() core.Config {
	return core.Config{
		Budget:      t.Budget,
		InitLow:     t.InitLow,
		InitHigh:    t.InitHigh,
		MSP:         optimize.MSPConfig{Starts: t.MSPStarts, LocalIter: t.MSPIters},
		GPMaxIter:   t.GPMaxIter,
		Incremental: t.Incremental,
		RefitEvery:  t.RefitEvery,
		Workers:     t.Workers,
	}
}

func (t tuning) request(id, prob string, seed int64) api.CreateSessionRequest {
	return api.CreateSessionRequest{
		ID:           id,
		Problem:      prob,
		Seed:         seed,
		Budget:       t.Budget,
		InitLow:      t.InitLow,
		InitHigh:     t.InitHigh,
		MSPStarts:    t.MSPStarts,
		MSPLocalIter: t.MSPIters,
		GPMaxIter:    t.GPMaxIter,
		Incremental:  t.Incremental,
		RefitEvery:   t.RefitEvery,
		Workers:      t.Workers,
	}
}

// clients is the number of closed-loop clients of every workload: each
// starts its next session only when its previous one has spent its budget.
// Two clients keep both CPUs of the 2-vCPU reference machine busy.
const clients = 2

// workload is one named benchmark input.
type workload struct {
	Name    string
	Problem string
	Tune    tuning
	// Batch > 1 drives sessions with AskBatch(Batch) and reports the batch
	// back through TellByID newest first; otherwise Ask/TellByID one at a
	// time.
	Batch int
	// Fleet drives sessions through client → gateway → sharded replicas
	// instead of in-process engines.
	Fleet bool
}

// paperMSP is the CLI's acquisition setting (10 starts × 30 iterations).
const paperMSPStarts, paperMSPIters = 10, 30

var workloads = []workload{
	{
		Name:    "poweramp-exact",
		Problem: "poweramp",
		Tune:    tuning{Budget: 8, MSPStarts: paperMSPStarts, MSPIters: paperMSPIters, Workers: 1},
	},
	{
		Name:    "chargepump-incr",
		Problem: "chargepump",
		Tune: tuning{Budget: 5.75, MSPStarts: paperMSPStarts, MSPIters: paperMSPIters,
			Incremental: true, RefitEvery: 5, Workers: 1},
	},
	{
		Name:    "fleet-forrester",
		Problem: "forrester",
		Tune:    tuning{Budget: 6, InitLow: 8, InitHigh: 4, MSPStarts: 4, MSPIters: 15, GPMaxIter: 30},
		Fleet:   true,
	},
	{
		Name:    "ladder-batch",
		Problem: "poweramp3",
		Tune:    tuning{Budget: 10, MSPStarts: 5, MSPIters: 20, Workers: 1},
		Batch:   2,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// sessionSpec identifies one session of a run: the k-th session of client
// c, with its seed derived from the run's seed.
type sessionSpec struct {
	Client, K int
	ID        string
	Seed      int64
}

func newSpec(w *workload, runSeed int64, c, k int) sessionSpec {
	return sessionSpec{
		Client: c, K: k,
		ID:   fmt.Sprintf("%s-c%d-%03d", w.Name, c, k),
		Seed: int64(splitmix(uint64(runSeed)<<24^uint64(c)<<16^uint64(k)) >> 1),
	}
}

// splitmix is the SplitMix64 finalizer: well-spread seeds from small inputs.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
