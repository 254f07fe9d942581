package ghostfuzz

import (
	"fmt"
	"sort"

	"ghostbuster/internal/fleet"
)

// FleetOptions configures a fleet-mode fuzz: one generated adversary
// per host, swept through fleet.Manager's bounded scheduler.
type FleetOptions struct {
	Seed  int64
	Hosts int
	// Parallelism is the sweep's worker-pool width; zero keeps the
	// scheduler default (GOMAXPROCS).
	Parallelism int
	// HostParallelism fans each host's scan units (eight, up to
	// fourteen with every next-generation pair) across lanes.
	HostParallelism int
	Breaker         *Breaker
}

// FleetSummary is the fleet fuzz outcome. Deterministic: per-host
// expected/actual hidden counts, no wall-clock times.
type FleetSummary struct {
	Seed       int64       `json:"seed"`
	Hosts      int         `json:"hosts"`
	Violations []Violation `json:"violations,omitempty"`
}

// fleetSeedBase offsets fleet host seeds away from single-case seeds so
// `-seed 1 -n 200` and `-seed 1 -fleet 8` never build the same machine.
const fleetSeedBase = 1 << 20

// RunFleet builds Hosts infected machines, enrolls them in a
// fleet.Manager, and runs a parallel inside sweep. Per-host panics are
// captured by the manager's scheduler and surface as errors, which the
// oracle turns into violations. Each host must come back infected with
// exactly the planted hidden count. Results are judged in host order so
// the violation list is deterministic whatever order hosts finish in.
func RunFleet(opts FleetOptions) (*FleetSummary, error) {
	s := &FleetSummary{Seed: opts.Seed, Hosts: opts.Hosts}
	mgr := fleet.NewManager()
	mgr.HostParallelism = opts.HostParallelism
	expected := map[string]int{}
	for i := 0; i < opts.Hosts; i++ {
		spec := Generate(CaseSeed(opts.Seed, fleetSeedBase+i))
		c, err := Build(spec)
		host := fmt.Sprintf("fuzz-%03d", i)
		if err != nil {
			s.Violations = append(s.Violations, Violation{InvError, "fleet/" + host, err.Error()})
			continue
		}
		mgr.Add(host, c.M)
		expected[host] = c.Expect.HiddenTotal()
	}
	var results []fleet.HostResult
	if _, err := mgr.SweepStreamed(fleet.SweepInside, opts.Parallelism, func(res fleet.HostResult) {
		results = append(results, res)
	}); err != nil {
		return nil, err
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Host < results[j].Host })
	for _, res := range results {
		mode := "fleet/" + res.Host
		if res.Err != "" {
			s.Violations = append(s.Violations, Violation{InvError, mode, res.Err})
			continue
		}
		reports := res.Reports
		if opts.Breaker != nil {
			reports = opts.Breaker.apply(mode, reports)
		}
		hidden := 0
		for _, r := range reports {
			hidden += len(r.Hidden)
		}
		want := expected[res.Host]
		if hidden != want {
			inv := InvCoverage
			if hidden > want {
				inv = InvInnocent
			}
			s.Violations = append(s.Violations, Violation{inv, mode,
				fmt.Sprintf("%d hidden findings, planted %d", hidden, want)})
		}
		if !res.Infected && want > 0 {
			s.Violations = append(s.Violations, Violation{InvCoverage, mode, "host not reported infected"})
		}
	}
	return s, nil
}
