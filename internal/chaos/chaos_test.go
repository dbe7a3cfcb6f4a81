package chaos

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/duv/iounit"
)

// chaosConfig is deliberately tiny: the sweep reruns the campaign twice
// per kill point, so every simulation here is paid ~2x(records) times.
func chaosConfig() core.Config {
	return core.Config{
		Seed:                  21,
		Workers:               3,
		CorpusSimsPerTemplate: 40,
		TopTemplates:          2,
		Subranges:             2,
		SampleTemplates:       6,
		SampleSims:            8,
		OptIterations:         3,
		OptDirections:         3,
		OptSims:               10,
		BestSims:              60,
	}
}

func chaosCampaign() Campaign {
	return Campaign{
		NewFlow: newChaosFlow,
		Run: func(f *core.Flow) (any, error) {
			reports, err := f.RunFamilyRefined(context.Background(), iounit.FamilyName, 0.4, 1)
			if err != nil {
				return nil, err
			}
			return reports, nil
		},
	}
}

// perEventCampaign journals a RunPerEventShared flow: shared corpus and
// sampling, then one optimize + harvest record group per target.
func perEventCampaign() Campaign {
	return Campaign{
		NewFlow: newChaosFlow,
		Run: func(f *core.Flow) (any, error) {
			reports, err := f.RunPerEventShared(context.Background(), iounit.FamilyName, 0.4)
			if err != nil {
				return nil, err
			}
			return reports, nil
		},
	}
}

func newChaosFlow(journal string) (*core.Flow, error) {
	cfg := chaosConfig()
	cfg.Journal = journal
	return core.New(iounit.New(), cfg)
}

// TestKillAtEveryAppendBoundary is the PR's central robustness
// property: a flow killed at ANY journal append — cleanly at the record
// boundary, or mid-frame with a torn partial write on disk — must
// resume into a bit-identical result. The sweep covers every record the
// campaign journals, for a refined-family run and a per-event run.
func TestKillAtEveryAppendBoundary(t *testing.T) {
	before := runtime.NumGoroutine()

	for _, tc := range []struct {
		name     string
		campaign Campaign
	}{
		{"family", chaosCampaign()},
		{"per_event", perEventCampaign()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trials, err := tc.campaign.Sweep(t.TempDir(), []int{0, 7})
			if err != nil {
				t.Fatal(err)
			}
			if trials < 20 {
				t.Fatalf("sweep ran only %d trials; the campaign journals too few records to be a meaningful test", trials)
			}
			t.Logf("chaos sweep: %d crash+resume trials, all bit-identical", trials)
		})
	}

	// Every killed flow was Closed; its workers must be gone. Allow the
	// runtime a moment to retire exiting goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before sweep, %d after", before, n)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestCrashAndResumeRejectsForeignFlow: the harness must not be able to
// resume a journal into a flow with a different config — the guard the
// whole bit-identity argument rests on.
func TestCrashAndResumeRejectsForeignFlow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "victim.journal")
	c := chaosCampaign()
	victim, err := c.NewFlow(path)
	if err != nil {
		t.Fatal(err)
	}
	victim.Journal().Writer().FailAppends(3, 0)
	if _, err := c.Run(victim); err == nil {
		t.Fatal("injected kill did not fire")
	}
	victim.Close()

	// Auto-resume through core.New must reject the journal: the victim's
	// journal exists but was written under a different seed.
	cfg := chaosConfig()
	cfg.Seed = 99
	cfg.Journal = path
	if other, err := core.New(iounit.New(), cfg); err == nil {
		other.Close()
		t.Fatal("foreign flow resumed a mismatched journal")
	}
}
