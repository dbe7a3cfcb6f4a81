package core

import (
	"context"
	"fmt"

	"repro/internal/neighbors"
	"repro/internal/rng"
)

// RunPerEventShared implements the paper's future-work direction
// (Section VI): amortizing simulations across several target events.
// Every uncovered event of the family becomes its own optimization
// target with its own distance-weighted approximated target, but the
// expensive shared phases run once:
//
//   - the "Before CDG" corpus,
//   - the coarse-grained TAC search and the skeleton,
//   - the random-sample phase — each target picks its own best starting
//     point from the same n x N simulations.
//
// Only the optimization and harvest phases run per target, through the
// same journaled optimizeAndHarvest as Run: a journaled per-event run
// checkpoints every target's optimizer and harvest and resumes from
// them, and, like Run, opens with a run_start record that refuses a
// journal written for other targets. Compared to independent Run calls for k targets this saves
// (k-1) x (corpus + sampling) simulations.
//
// It returns one report per target event, in family order. ctx cancels
// as in RunFamily.
func (f *Flow) RunPerEventShared(ctx context.Context, family string, decay float64) ([]*Report, error) {
	reports, err := f.runPerEventShared(ctx, family, decay)
	return reports, f.finish(err)
}

func (f *Flow) runPerEventShared(ctx context.Context, family string, decay float64) ([]*Report, error) {
	f.begin(ctx)
	model := f.env.Unit().Model()
	famIDs, ok := model.Family(family)
	if !ok {
		return nil, fmt.Errorf("core: unit %q has no family %q", f.env.Unit().Name(), family)
	}
	if err := f.ensureCorpus(); err != nil {
		return nil, err
	}
	simsAtStart := f.env.Simulations()
	targets := f.uncoveredTargets(famIDs)

	// Shared coarse-grained search, driven by the union target.
	phN := f.rec.PhaseStart("neighbors", map[string]any{"family": family, "decay": decay})
	unionWS, err := neighbors.Ordinal(model, family, targets, decay)
	phN.End(map[string]any{"targets": len(targets), "approx_events": len(unionWS)})
	if err != nil {
		return nil, err
	}
	union := neighbors.NewTarget(unionWS)
	if err := f.syncRunStart(union, targets); err != nil {
		return nil, err
	}
	chosen, candidate, skel, err := f.coarseSearch(union)
	if err != nil {
		return nil, err
	}

	// Shared random sampling.
	phSample := f.rec.PhaseStart("sampling", map[string]any{
		"templates": f.cfg.SampleTemplates, "sims_each": f.cfg.SampleSims,
	})
	r := rng.New(f.cfg.Seed).SplitString("cdg-runner-shared")
	samples, sampleAggregate, err := f.samplePhase(skel, r.SplitString("sample"))
	phSample.End(nil)
	if err != nil {
		return nil, err
	}
	sharedSims := f.env.Simulations() - simsAtStart

	before := f.repo.Total().Clone()
	reports := make([]*Report, 0, len(targets))
	for _, ev := range targets {
		ws, err := neighbors.Ordinal(model, family, []int{ev}, decay)
		if err != nil {
			return nil, err
		}
		target := neighbors.NewTarget(ws)
		report := &Report{
			Unit:            f.env.Unit().Name(),
			Target:          target,
			TargetEvents:    []int{ev},
			ChosenTemplates: chosen,
			Candidate:       candidate,
			Skeleton:        skel,
		}
		report.Phases = append(report.Phases, PhaseStats{
			Name:        "before",
			Description: fmt.Sprintf("%d sims (shared)", before.Sims()),
			Counts:      before,
		})
		report.Phases = append(report.Phases, PhaseStats{
			Name: "sampling",
			Description: fmt.Sprintf("%d tests x %d sims each (shared)",
				f.cfg.SampleTemplates, f.cfg.SampleSims),
			Counts: sampleAggregate,
		})

		perTargetStart := f.env.Simulations()
		x0, startScore := bestSample(samples, target)
		evName := model.Name(ev)
		name := fmt.Sprintf("%s_cdg_%s_best", f.env.Unit().Name(), evName)
		if err := f.optimizeAndHarvest(report, x0, startScore, r.SplitString("optimize-"+evName), name,
			map[string]any{"target": evName}); err != nil {
			return nil, err
		}

		// Per-target accounting: this target's own spend plus its share
		// of the common phases.
		report.TotalSims = f.env.Simulations() - perTargetStart + sharedSims/uint64(len(targets))
		reports = append(reports, report)
	}
	return reports, nil
}
