package experiments

// Chaos runs the deterministic fault harness (internal/chaos) as a bench
// verb: seeded kill/mixed schedules over both the in-process and the
// loopback-TCP exchange, each verified bit-identical against a clean run of
// the same query. This is the robustness counterpart of the performance
// experiments — the number that matters is exact_runs == runs; the recovery
// and retry counters say how hard the engine had to work to get there.

import (
	"context"
	"fmt"

	"psgl/internal/bsp"
	"psgl/internal/chaos"
	"psgl/internal/core"
	"psgl/internal/gen"
	"psgl/internal/pattern"
)

// ChaosResult is one (transport, schedule) cell of the chaos report.
type ChaosResult struct {
	Transport           string `json:"transport"`
	Schedule            string `json:"schedule"`
	Identical           bool   `json:"identical"`
	CleanCount          int64  `json:"clean_count"`
	ChaosCount          int64  `json:"chaos_count"`
	FaultsFired         int    `json:"faults_fired"`
	Recoveries          int64  `json:"recoveries"`
	Retries             int64  `json:"retries"`
	Restarts            int    `json:"restarts"`
	CorruptionsDetected int    `json:"corruptions_detected"`
}

// ChaosReport is the machine-readable chaos baseline (BENCH_chaos.json).
type ChaosReport struct {
	Graph      string        `json:"graph"`
	Pattern    string        `json:"pattern"`
	Workers    int           `json:"workers"`
	Runs       int           `json:"runs"`
	ExactRuns  int           `json:"exact_runs"`
	Recoveries int64         `json:"recoveries"`
	Retries    int64         `json:"retries"`
	Restarts   int           `json:"restarts"`
	Cells      []ChaosResult `json:"cells"`
}

const (
	chaosGraphSpec = "er:80:500 seed 1"
	chaosWorkers   = 3
	// chaosMaxStep caps fault steps at a barrier the query actually
	// reaches (PG2 over this graph runs 4 supersteps; the last barrier
	// exchanges nothing).
	chaosMaxStep = 2
	chaosSeeds   = 3
)

func runChaos() (*ChaosReport, error) {
	g := gen.ErdosRenyi(80, 500, 1)
	p := pattern.PG2()
	rep := &ChaosReport{
		Graph:   chaosGraphSpec,
		Pattern: "pg2",
		Workers: chaosWorkers,
	}

	type plan struct {
		transport string
		sched     chaos.Schedule
	}
	var plans []plan
	for seed := int64(1); seed <= chaosSeeds; seed++ {
		plans = append(plans,
			plan{"local", chaos.NewKillSchedule(seed, chaosWorkers, chaosMaxStep)},
			plan{"tcp", chaos.NewKillSchedule(seed, chaosWorkers, chaosMaxStep)},
		)
	}
	// One mixed schedule (kills, drops, delays, partitions) and one
	// corruption pair per transport on a fixed seed.
	for _, tr := range []string{"local", "tcp"} {
		plans = append(plans,
			plan{tr, chaos.NewSchedule(7, chaosWorkers, chaosMaxStep, 3)},
			plan{tr, chaos.Schedule{Seed: 11, Events: []chaos.Event{
				{Step: 1, Kind: chaos.CorruptCheckpoint},
				{Step: 2, Kind: chaos.Kill, Worker: 1},
			}}},
		)
	}

	for _, pl := range plans {
		cfg := chaos.Config{
			Graph:   g,
			Pattern: p,
			Opts:    core.Options{Workers: chaosWorkers, Seed: 1},
		}
		if pl.transport == "tcp" {
			cfg.Exchange = bsp.NewTCPExchangeFactory()
		}
		out, err := chaos.Run(context.Background(), cfg, pl.sched)
		if err != nil {
			return nil, fmt.Errorf("chaos %s %s: %w", pl.transport, pl.sched, err)
		}
		rep.Runs++
		if out.Identical {
			rep.ExactRuns++
		}
		rep.Recoveries += out.Recoveries
		rep.Retries += out.Retries
		rep.Restarts += out.Restarts
		rep.Cells = append(rep.Cells, ChaosResult{
			Transport:           pl.transport,
			Schedule:            pl.sched.String(),
			Identical:           out.Identical,
			CleanCount:          out.CleanCount,
			ChaosCount:          out.ChaosCount,
			FaultsFired:         out.FaultsFired,
			Recoveries:          out.Recoveries,
			Retries:             out.Retries,
			Restarts:            out.Restarts,
			CorruptionsDetected: out.CorruptionsDetected,
		})
	}
	return rep, nil
}

// Chaos returns the text report of the chaos harness.
func Chaos() string { return mustText(runChaos()) }

func (rep *ChaosReport) text() string {
	r := newReport("Chaos harness: seeded faults, exactness verified against clean runs")
	r.row("transport", "schedule", "exact", "fired", "recov", "retries", "restarts")
	for _, c := range rep.Cells {
		r.rowf("%s\t%s\t%v\t%d\t%d\t%d\t%d",
			c.Transport, c.Schedule, c.Identical, c.FaultsFired, c.Recoveries, c.Retries, c.Restarts)
	}
	r.note("graph %s, pattern %s, %d workers; %d/%d runs bit-identical; %d recoveries, %d retries, %d restarts total",
		rep.Graph, rep.Pattern, rep.Workers, rep.ExactRuns, rep.Runs, rep.Recoveries, rep.Retries, rep.Restarts)
	return r.String()
}

// ChaosJSON runs the chaos harness once and returns that one report both ways:
// the text table, and the indented JSON committed as BENCH_chaos.json. A run
// that was not bit-identical to its clean twin is an error, not a baseline.
func ChaosJSON() (text string, data []byte, err error) {
	rep, err := runChaos()
	if err == nil && rep.ExactRuns != rep.Runs {
		err = fmt.Errorf("experiments: chaos: only %d/%d runs bit-identical", rep.ExactRuns, rep.Runs)
	}
	return bothRenderings(rep, err)
}
