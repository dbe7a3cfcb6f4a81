package core

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/duv/l3cache"
	"repro/internal/journal"
	"repro/internal/obs"
)

func TestRunPerEventSharedBasics(t *testing.T) {
	flow := NewFlow(l3cache.New(), smallConfig(21))
	reports, err := flow.RunPerEventShared(context.Background(), l3cache.FamilyName, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) < 2 {
		t.Fatalf("expected several per-event reports, got %d", len(reports))
	}
	names := map[string]bool{}
	for _, r := range reports {
		if len(r.TargetEvents) != 1 {
			t.Fatalf("per-event report has %d targets", len(r.TargetEvents))
		}
		if r.BestTemplate == nil {
			t.Fatal("missing best template")
		}
		if names[r.BestTemplate.Name] {
			t.Fatalf("duplicate harvested name %q", r.BestTemplate.Name)
		}
		names[r.BestTemplate.Name] = true
		if len(r.Phases) != 4 {
			t.Fatalf("phases = %d", len(r.Phases))
		}
		if err := r.BestTemplate.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// The shared sampling aggregate must literally be shared.
	if reports[0].Phase("sampling").Counts != reports[1].Phase("sampling").Counts {
		t.Fatal("sampling phase not shared")
	}
}

func TestRunPerEventSharedSavesSimulations(t *testing.T) {
	cfg := smallConfig(22)

	shared := NewFlow(l3cache.New(), cfg)
	sharedReports, err := shared.RunPerEventShared(context.Background(), l3cache.FamilyName, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	sharedTotal := shared.Env().Simulations()

	// Independent runs: one full RunFamily per target, each rebuilding
	// sampling (corpus shared via Config.Repository to isolate the
	// sampling saving).
	indepCfg := cfg
	indepCfg.Repository = shared.Repository() // corpus for free
	indep := NewFlow(l3cache.New(), indepCfg)
	base := indep.Env().Simulations()
	k := len(sharedReports)
	for i := 0; i < k; i++ {
		if _, err := indep.RunFamily(context.Background(), l3cache.FamilyName, 0.4); err != nil {
			t.Fatal(err)
		}
	}
	indepTotal := indep.Env().Simulations() - base

	// Shared flow pays sampling once; independent pays it k times. The
	// shared total includes the corpus, so compare sampling counts
	// directly.
	samplingCost := uint64(cfg.SampleTemplates * cfg.SampleSims)
	if sharedTotal > uint64(cfg.CorpusSimsPerTemplate*6)+samplingCost+indepTotal {
		t.Fatalf("shared flow did not save simulations: shared=%d indep=%d", sharedTotal, indepTotal)
	}
	t.Logf("shared=%d sims for %d targets; independent=%d sims (excl. corpus)", sharedTotal, k, indepTotal)
}

func TestRunPerEventSharedErrors(t *testing.T) {
	flow := NewFlow(l3cache.New(), smallConfig(23))
	if _, err := flow.RunPerEventShared(context.Background(), "no_such_family", 0.4); err == nil {
		t.Fatal("unknown family should fail")
	}
}

func TestRunPerEventSharedAccounting(t *testing.T) {
	flow := NewFlow(l3cache.New(), smallConfig(24))
	reports, err := flow.RunPerEventShared(context.Background(), l3cache.FamilyName, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, r := range reports {
		if r.TotalSims == 0 {
			t.Fatal("per-target accounting missing")
		}
		sum += r.TotalSims
	}
	// The per-target totals (own spend + shared share) must not exceed
	// the environment's grand total.
	if sum > flow.Env().Simulations() {
		t.Fatalf("per-target sims sum %d exceeds environment total %d", sum, flow.Env().Simulations())
	}
}

// perEventJournalConfig is a small l3cache per-event campaign; Workers
// > 1 routes every simulation through the scheduler, whose instance
// counter proves a replay simulated nothing.
func perEventJournalConfig() Config {
	return Config{
		Seed:                  11,
		Workers:               2,
		CorpusSimsPerTemplate: 150,
		TopTemplates:          2,
		Subranges:             2,
		SampleTemplates:       6,
		SampleSims:            10,
		OptIterations:         3,
		OptDirections:         5,
		OptSims:               12,
		BestSims:              80,
	}
}

// TestRunPerEventSharedJournalsAndResumes: a journaled per-event run
// checkpoints every target's optimizer (at least one opt_iter record)
// and harvest (exactly one harvest record) in target order, matches the
// unjournaled run bit for bit, a resume of the finished journal
// replays every target without simulating, and a resume with other
// targets is refused.
func TestRunPerEventSharedJournalsAndResumes(t *testing.T) {
	plain := NewFlow(l3cache.New(), perEventJournalConfig())
	want, err := plain.RunPerEventShared(context.Background(), l3cache.FamilyName, 0.5)
	plain.Close()
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "perevent.journal")
	cfg := perEventJournalConfig()
	cfg.Journal = path
	live, err := New(l3cache.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := live.RunPerEventShared(context.Background(), l3cache.FamilyName, 0.5)
	live.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("journaled per-event run diverged from the plain run")
	}

	recs, w, err := journal.Recover(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	var harvests []string
	optIters := 0
	for _, r := range recs {
		switch r.Type {
		case "opt_iter":
			optIters++
		case "harvest":
			if optIters == 0 {
				t.Fatalf("harvest record %d has no opt_iter record before it", len(harvests))
			}
			var h harvestRec
			if err := json.Unmarshal(r.Data, &h); err != nil {
				t.Fatal(err)
			}
			harvests = append(harvests, h.Name)
			optIters = 0
		}
	}
	if len(harvests) != len(want) {
		t.Fatalf("%d harvest records for %d targets", len(harvests), len(want))
	}
	for i, r := range want {
		if harvests[i] != r.BestTemplate.Name {
			t.Fatalf("harvest record %d is %q, want %q", i, harvests[i], r.BestTemplate.Name)
		}
	}

	rec := obs.NewRecorder()
	cfg.Obs = rec
	replay, err := New(l3cache.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Close()
	replayed, err := replay.RunPerEventShared(context.Background(), l3cache.FamilyName, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, want) {
		t.Fatal("replayed per-event run diverged from the plain run")
	}
	if n := rec.Counter("sim.instances_completed").Value(); n != 0 {
		t.Fatalf("resuming a finished per-event journal simulated %d instances", n)
	}
	if n := rec.Counter("sim.jobs_submitted").Value(); n != 0 {
		t.Fatalf("resuming a finished per-event journal submitted %d jobs", n)
	}

	// The run_start record pins the targets and the union target, so the
	// same journal under another decay is rejected instead of replaying
	// optimizer states checkpointed for different targets.
	cfg.Obs = nil
	foreign, err := New(l3cache.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer foreign.Close()
	if _, err := foreign.RunPerEventShared(context.Background(), l3cache.FamilyName, 0.2); err == nil {
		t.Fatal("a per-event journal written at decay 0.5 resumed at decay 0.2")
	}
}
