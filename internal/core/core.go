// Package core implements the AS-CDG flow (paper Section IV, Fig. 2):
// the CDG-Runner orchestration that ties the substrates together.
//
// Given target coverage events, the flow
//
//  1. builds (or reuses) the "Before CDG" corpus: the unit's base
//     regression suite simulated into a coverage repository;
//  2. forms the approximated target from neighbor events;
//  3. runs the coarse-grained search: TAC finds the best existing
//     test-templates for the approximated target, and the parameters of
//     the top-n templates are merged into one candidate template;
//  4. skeletonizes the candidate, defining the fine-grained search box;
//  5. random-samples the box (n templates x N sims each) and picks the
//     best starting point;
//  6. optimizes with implicit filtering (n+1 templates per iteration,
//     N sims per template);
//  7. harvests the best template and measures it standalone.
//
// Every phase's aggregate coverage is retained so the paper's result
// tables (Figs. 3-5) and the optimization progress curve (Fig. 6) can be
// reproduced directly from one Report.
package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sort"

	"repro/internal/coverage"
	"repro/internal/duv"
	"repro/internal/journal"
	"repro/internal/neighbors"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/skeleton"
	"repro/internal/tac"
	"repro/internal/template"
)

// Config holds every knob of the flow. The zero value selects the
// defaults documented per field; the paper's per-unit settings live in
// the repro harness (cmd/repro).
type Config struct {
	// Seed makes the entire flow reproducible.
	Seed uint64
	// Workers sizes the batch environment's pool (<= 0: GOMAXPROCS).
	Workers int
	// Runner, when non-nil, adds remote chunk-execution lanes to the
	// environment (see sim.ChunkRunner; internal/farm provides the
	// distributed implementation). RunnerLanes sizes them (default 1).
	// Purely a throughput knob: results are bit-identical with or
	// without a runner, at any lane count, under any runner failures.
	Runner      sim.ChunkRunner
	RunnerLanes int

	// CorpusSimsPerTemplate is the number of simulations of each base
	// template when building the "Before CDG" corpus (default 1000).
	CorpusSimsPerTemplate int

	// TopTemplates is how many best TAC templates contribute parameters
	// to the fine-grained search (default 2).
	TopTemplates int

	// Subranges, SubrangeMode and IncludeZeroWeights configure the
	// Skeletonizer (defaults: 4, Linear, false).
	Subranges          int
	SubrangeMode       skeleton.SubrangeMode
	IncludeZeroWeights bool

	// SampleTemplates (n) and SampleSims (N) configure the random
	// sample phase (defaults 50 and 100).
	SampleTemplates int
	SampleSims      int

	// OptIterations, OptDirections and OptSims configure implicit
	// filtering (defaults 10, 10, 100). InitialStep and MinStep default
	// to a quarter and 1/64 of the weight box. NoResampleCenter disables
	// the center-resampling noise guard (ablation).
	OptIterations    int
	OptDirections    int
	OptSims          int
	InitialStep      float64
	MinStep          float64
	NoResampleCenter bool
	// TargetValue optionally stops the optimizer early (0 = disabled).
	TargetValue float64

	// BestSims is the standalone evaluation budget for the harvested
	// template (default 2000).
	BestSims int

	// Engine selects the fine-grained optimizer by registry name
	// ("" = implicit_filtering, the paper's Algorithm 1; see
	// opt.EngineNames). EngineParams is the engine's opaque knob blob
	// (a JSON object) overlaid on the flow's generic optimizer knobs
	// (iterations, directions, steps). Both are result-relevant and
	// journal-hashed.
	Engine       string
	EngineParams json.RawMessage

	// Prior offers past observations from the cross-campaign knowledge
	// base to engines that learn from history (ranker, bayes): each
	// point is a previously harvested weight vector and its measured
	// coverage score. Stencil engines ignore it. Result-relevant when
	// the selected engine uses it, so its content digest is part of the
	// journal's config hash.
	Prior []opt.PriorPoint

	// TACPrior blends knowledge-base evidence into the coarse-grained
	// search: per-template score boosts (already damped by the
	// producer) added to the TAC ranking before the top templates are
	// chosen. Empty leaves the ranking untouched — the default flow is
	// bit-identical with or without the field. Result-relevant and
	// journal-hashed.
	TACPrior map[string]float64

	// Obs, when non-nil, instruments the run: phase spans and progress
	// events from the flow, scheduler metrics from the environment, and
	// per-iteration records from the optimizer. Purely observational —
	// reports are bit-identical with it set or nil (default nil).
	Obs *obs.Recorder

	// Repository, when non-nil, installs a pre-built "Before CDG" corpus
	// at construction, so multiple flows against the same unit share the
	// expensive regression phase. Not part of the journal's config hash:
	// the journal's run_start record validates the targets the corpus
	// induces instead.
	Repository *coverage.Repository

	// Journal, when non-empty, is the path of the flow's crash-safe
	// journal file. New arms it at construction: a missing (or empty)
	// file starts a fresh journal; an existing one is recovered and
	// replayed, re-entering the interrupted run mid-phase (its header
	// must match this flow's unit, seed, coverage model, and
	// result-relevant config). The flow owns the journal and closes it
	// with Close.
	Journal string

	// Log, when non-nil, receives structured journal lifecycle events
	// (resume, torn-tail truncation). Like Obs, it is throughput-only:
	// excluded from the journal's config hash, never result-relevant.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.CorpusSimsPerTemplate <= 0 {
		c.CorpusSimsPerTemplate = 1000
	}
	if c.TopTemplates <= 0 {
		c.TopTemplates = 2
	}
	if c.Subranges <= 0 {
		c.Subranges = 4
	}
	if c.SampleTemplates <= 0 {
		c.SampleTemplates = 50
	}
	if c.SampleSims <= 0 {
		c.SampleSims = 100
	}
	if c.OptIterations <= 0 {
		c.OptIterations = 10
	}
	if c.OptDirections <= 0 {
		c.OptDirections = 10
	}
	if c.OptSims <= 0 {
		c.OptSims = 100
	}
	if c.BestSims <= 0 {
		c.BestSims = 2000
	}
	return c
}

// engineName resolves the configured optimization engine ("" means the
// paper's default, implicit filtering).
func (c Config) engineName() string {
	if c.Engine == "" {
		return opt.DefaultEngine
	}
	return c.Engine
}

// engineParams builds the engine's parameter blob: the flow's generic
// optimizer knobs as the base, with the user's EngineParams overlaid.
// Engines decode leniently, so stencil-specific knobs (directions,
// min_step) are simply ignored by engines without them.
func (c Config) engineParams() (json.RawMessage, error) {
	base := map[string]any{
		"iterations": c.OptIterations,
		"directions": c.OptDirections,
	}
	if c.InitialStep > 0 {
		base["initial_step"] = c.InitialStep
	}
	if c.MinStep > 0 {
		base["min_step"] = c.MinStep
	}
	if c.NoResampleCenter {
		base["no_resample_center"] = true
	}
	return opt.MergeParams(base, c.EngineParams)
}

// blendTACPrior folds cross-campaign knowledge into a TAC ranking: each
// template named in prior gets its boost added to the measured score,
// then the ranking is re-sorted (score descending, name ascending for
// determinism). An empty prior returns ranked untouched, keeping the
// default flow bit-identical.
func blendTACPrior(ranked []tac.TemplateScore, prior map[string]float64) []tac.TemplateScore {
	if len(prior) == 0 {
		return ranked
	}
	out := append([]tac.TemplateScore(nil), ranked...)
	for i := range out {
		if boost, ok := prior[out[i].Name]; ok {
			out[i].Score += boost
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// PhaseStats is one phase's aggregate coverage — one column group of the
// paper's Figs. 3 and 4.
type PhaseStats struct {
	// Name is "before", "sampling", "optimization" or "best".
	Name string
	// Description summarizes the phase's budget, e.g. "200 tests x 100
	// sims each".
	Description string
	// Counts aggregates every simulation of the phase.
	Counts *coverage.Counts
}

// Report is the full outcome of one AS-CDG run.
type Report struct {
	Unit         string
	Target       *neighbors.Target
	TargetEvents []int // the real (uncovered) target events

	// ChosenTemplates are the coarse-grained search winners.
	ChosenTemplates []tac.TemplateScore
	// Candidate is the merged template handed to the Skeletonizer.
	Candidate *template.Template
	// Skeleton is the fine-grained search space.
	Skeleton *skeleton.Skeleton

	Phases []PhaseStats

	// BestWeights/BestTemplate are the harvested optimum.
	BestWeights  []float64
	BestTemplate *template.Template

	// Progress is the optimizer's per-iteration best target value — the
	// paper's Fig. 6 series.
	Progress []opt.IterRecord

	// TotalSims is the number of simulations consumed by the whole run
	// (excluding a pre-built corpus).
	TotalSims uint64
}

// Phase returns the named phase's stats, or nil.
func (r *Report) Phase(name string) *PhaseStats {
	for i := range r.Phases {
		if r.Phases[i].Name == name {
			return &r.Phases[i]
		}
	}
	return nil
}

// Flow runs AS-CDG against one unit.
type Flow struct {
	env   *sim.Env
	cfg   Config
	rec   *obs.Recorder // nil when observability is off
	repo  *coverage.Repository
	extra map[string]*template.Template // harvested templates, by name
	round int                           // successfully harvested rounds (names harvested templates)
	ctx   context.Context               // nil = never canceled
	cur   *journal.Cursor               // nil = journaling off
}

// ErrInterrupted reports a run stopped by context cancellation rather
// than a real failure: the flow checkpointed its state (when journaled)
// and can be resumed. All run entry points return an error satisfying
// errors.Is(err, ErrInterrupted) on cancellation, so callers decide
// exit codes without string matching. The underlying ctx.Err() stays in
// the chain, so errors.Is(err, context.Canceled) keeps working too.
var ErrInterrupted = errors.New("core: run interrupted")

// New creates a fully configured flow for the unit: cfg.Repository
// installs a pre-built corpus and cfg.Journal arms the crash-safe
// journal (fresh when the file is missing, resumed when it exists).
// This is the declarative construction path — nothing needs to be
// mutated on the flow before running it.
func New(unit duv.DUV, cfg Config) (*Flow, error) {
	cfg = cfg.withDefaults()
	env := sim.NewEnv(unit, cfg.Seed, cfg.Workers)
	env.SetRecorder(cfg.Obs)
	if cfg.Runner != nil {
		lanes := cfg.RunnerLanes
		if lanes <= 0 {
			lanes = 1
		}
		env.AttachRunner(cfg.Runner, lanes)
	}
	f := &Flow{
		env:   env,
		cfg:   cfg,
		rec:   cfg.Obs,
		repo:  cfg.Repository,
		extra: map[string]*template.Template{},
	}
	if cfg.Journal != "" {
		if err := f.openJournal(cfg.Journal); err != nil {
			env.Close()
			return nil, err
		}
	}
	return f, nil
}

// NewFlow is New for configs without a journal. It panics if cfg
// names a journal that cannot be opened; prefer New when cfg.Journal
// is set.
func NewFlow(unit duv.DUV, cfg Config) *Flow {
	f, err := New(unit, cfg)
	if err != nil {
		panic(fmt.Sprintf("core.NewFlow: %v (use core.New for journaled flows)", err))
	}
	return f
}

// Env exposes the flow's batch environment (for accounting).
func (f *Flow) Env() *sim.Env { return f.env }

// Close releases the environment's worker pool and the journal, if any.
// The flow must not be run afterwards.
func (f *Flow) Close() {
	f.env.Close()
	f.cur.Close()
}

// begin installs the run's context on the flow and its environment
// (nil means never canceled). Entry points call it before any phase.
func (f *Flow) begin(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	f.ctx = ctx
	f.env.SetContext(ctx)
}

// ctxErr is the flow's nil-tolerant cancellation probe.
func (f *Flow) ctxErr() error {
	if f.ctx == nil {
		return nil
	}
	return f.ctx.Err()
}

// finish normalizes an entry point's error: a run that failed because
// its context was canceled is an interruption, not a failure — the
// error is wrapped so errors.Is(err, ErrInterrupted) holds (the
// original cause stays in the chain) and the cancellation metric is
// bumped. Errors from live runs pass through untouched.
func (f *Flow) finish(err error) error {
	if err == nil || f.ctxErr() == nil || errors.Is(err, ErrInterrupted) {
		return err
	}
	f.rec.Counter("flow.cancellations").Inc()
	return fmt.Errorf("%w: %w", ErrInterrupted, err)
}

// Repository returns the flow's corpus (nil until built or configured).
func (f *Flow) Repository() *coverage.Repository { return f.repo }

// RunFamily is the common entry point for buffer-utilization families:
// the real targets are the family's uncovered events, and the
// approximated target is the decay-weighted family (decay 1 = the
// paper's plain family sum). ctx aborts the run between simulations
// with an ErrInterrupted-wrapped error, leaving any journal consistent
// for resumption.
func (f *Flow) RunFamily(ctx context.Context, family string, decay float64) (*Report, error) {
	report, err := f.runFamily(ctx, family, decay)
	return report, f.finish(err)
}

func (f *Flow) runFamily(ctx context.Context, family string, decay float64) (*Report, error) {
	f.begin(ctx)
	model := f.env.Unit().Model()
	famIDs, ok := model.Family(family)
	if !ok {
		return nil, fmt.Errorf("core: unit %q has no family %q", f.env.Unit().Name(), family)
	}
	if err := f.ensureCorpus(); err != nil {
		return nil, err
	}
	ph := f.rec.PhaseStart("neighbors", map[string]any{"family": family, "decay": decay})
	targets := f.uncoveredTargets(famIDs)
	ws, err := neighbors.Ordinal(model, family, targets, decay)
	ph.End(map[string]any{"targets": len(targets), "approx_events": len(ws)})
	if err != nil {
		return nil, err
	}
	return f.Run(ctx, neighbors.NewTarget(ws), targets)
}

// uncoveredTargets returns the real targets of a family: the events
// still uncovered after the corpus, or — when everything is already
// covered — the deepest (last) member.
func (f *Flow) uncoveredTargets(famIDs []int) []int {
	var targets []int
	for _, id := range famIDs {
		if f.repo.Total().Hits(id) == 0 {
			targets = append(targets, id)
		}
	}
	if len(targets) == 0 {
		return famIDs[len(famIDs)-1:]
	}
	return targets
}

// RunCross is the entry point for cross-product coverage (the paper's
// IFU experiment): the targets are the cross's uncovered events, and the
// approximated target spans the whole cross product uniformly. ctx
// cancels as in RunFamily.
func (f *Flow) RunCross(ctx context.Context, crossName string) (*Report, error) {
	report, err := f.runCross(ctx, crossName)
	return report, f.finish(err)
}

func (f *Flow) runCross(ctx context.Context, crossName string) (*Report, error) {
	f.begin(ctx)
	model := f.env.Unit().Model()
	cp, ok := model.Cross(crossName)
	if !ok {
		return nil, fmt.Errorf("core: unit %q has no cross product %q", f.env.Unit().Name(), crossName)
	}
	if err := f.ensureCorpus(); err != nil {
		return nil, err
	}
	ph := f.rec.PhaseStart("neighbors", map[string]any{"cross": crossName})
	ids, err := model.IDs(cp.EventNames())
	if err != nil {
		ph.End(nil)
		return nil, err
	}
	var targets []int
	for _, id := range ids {
		if f.repo.Total().Hits(id) == 0 {
			targets = append(targets, id)
		}
	}
	if len(targets) == 0 {
		targets = ids
	}
	ph.End(map[string]any{"targets": len(targets), "approx_events": len(ids)})
	return f.Run(ctx, neighbors.Uniform(ids), targets)
}

// RunFamilyRefined repeats RunFamily up to rounds times, implementing
// the paper's closing observation in Section IV-E: "Once there is good
// evidence for the target event, we can repeat the process." Each round
// re-derives the real targets from the updated repository (events the
// previous round newly covered drop out), and the previous round's
// harvested template competes in the coarse-grained search, so the
// skeleton of round k+1 starts from the best knowledge of round k. The
// loop stops early once every family event has evidence.
//
// The loop is driven by the flow's harvested-round counter rather than
// a local one, so a resumed flow replays its completed rounds and then
// runs only the remainder of the campaign. ctx cancels as in RunFamily;
// completed rounds' reports are returned alongside the error.
func (f *Flow) RunFamilyRefined(ctx context.Context, family string, decay float64, rounds int) ([]*Report, error) {
	if rounds <= 0 {
		rounds = 1
	}
	var reports []*Report
	for f.round < rounds {
		if f.round > 0 && f.familyCovered(family) {
			break
		}
		report, err := f.RunFamily(ctx, family, decay)
		if err != nil {
			return reports, err
		}
		reports = append(reports, report)
	}
	return reports, nil
}

// familyCovered reports whether every event of the family has evidence
// in the repository.
func (f *Flow) familyCovered(family string) bool {
	famIDs, _ := f.env.Unit().Model().Family(family)
	for _, id := range famIDs {
		if f.repo.Total().Hits(id) == 0 {
			return false
		}
	}
	return true
}

func (f *Flow) ensureCorpus() error {
	if f.repo != nil {
		return nil
	}
	ph := f.rec.PhaseStart("corpus", map[string]any{
		"sims_per_template": f.cfg.CorpusSimsPerTemplate,
	})
	repo, err := f.env.BuildCorpusJournaled(f.cfg.CorpusSimsPerTemplate, f.cur)
	if err != nil {
		ph.End(nil)
		return err
	}
	f.repo = repo
	ph.End(map[string]any{"sims": f.repo.Sims()})
	return nil
}

// Run executes the flow for an approximated target and the list of
// real target events, with cancellation and journal replay. With a
// journal armed (Config.Journal), completed phases replay from the
// record stream without simulating and the run re-enters live execution
// mid-phase; either way the Report is bit-identical to an uninterrupted
// unjournaled run. On cancellation the flow stops between simulations,
// never journals post-cancellation state, and returns an
// ErrInterrupted-wrapped error — the journal then resumes from the last
// completed record.
func (f *Flow) Run(ctx context.Context, target *neighbors.Target, targetEvents []int) (*Report, error) {
	f.begin(ctx)
	report, err := f.run(target, targetEvents)
	return report, f.finish(err)
}

func (f *Flow) run(target *neighbors.Target, targetEvents []int) (*Report, error) {
	if target == nil || target.Len() == 0 {
		return nil, fmt.Errorf("core: empty approximated target")
	}
	if err := f.ensureCorpus(); err != nil {
		return nil, err
	}
	if err := f.syncRunStart(target, targetEvents); err != nil {
		return nil, err
	}
	simsAtStart := f.env.Simulations()
	report := &Report{
		Unit:         f.env.Unit().Name(),
		Target:       target,
		TargetEvents: append([]int(nil), targetEvents...),
	}
	report.Phases = append(report.Phases, PhaseStats{
		Name:        "before",
		Description: fmt.Sprintf("%d sims", f.repo.Sims()),
		Counts:      f.repo.Total().Clone(),
	})

	chosen, candidate, skel, err := f.coarseSearch(target)
	if err != nil {
		return nil, err
	}
	report.ChosenTemplates = chosen
	report.Candidate = candidate
	report.Skeleton = skel

	r := rng.New(f.cfg.Seed).SplitString("cdg-runner")

	// Random sample phase (paper Section IV-D).
	phSample := f.rec.PhaseStart("sampling", map[string]any{
		"templates": f.cfg.SampleTemplates, "sims_each": f.cfg.SampleSims,
	})
	samples, samplePhase, err := f.samplePhase(skel, r.SplitString("sample"))
	if err != nil {
		phSample.End(nil)
		return nil, err
	}
	bestX, bestStart := bestSample(samples, target)
	phSample.End(map[string]any{"best_score": bestStart})
	report.Phases = append(report.Phases, PhaseStats{
		Name:        "sampling",
		Description: fmt.Sprintf("%d tests x %d sims each", f.cfg.SampleTemplates, f.cfg.SampleSims),
		Counts:      samplePhase,
	})

	// Optimization (paper Section IV-E) and harvest (Section IV-F).
	name := fmt.Sprintf("%s_cdg_best_%d", f.env.Unit().Name(), f.round+1)
	if err := f.optimizeAndHarvest(report, bestX, bestStart, r.SplitString("optimize"), name, nil); err != nil {
		return nil, err
	}

	report.TotalSims = f.env.Simulations() - simsAtStart
	if err := f.syncRunDone(report.TotalSims); err != nil {
		return nil, err
	}
	return report, nil
}

// coarseSearch is the coarse-grained search (paper Section IV-B) and
// the skeleton it defines (Section IV-C). The repository may contain
// statistics for templates whose bodies the flow does not have (e.g.
// templates harvested by earlier runs against a shared corpus); only
// templates with known bodies can seed the skeleton, so it ranks all
// templates and keeps the best TopTemplates known ones, merges them
// into one candidate, and skeletonizes it.
func (f *Flow) coarseSearch(target *neighbors.Target) ([]tac.TemplateScore, *template.Template, *skeleton.Skeleton, error) {
	phTac := f.rec.PhaseStart("tac", map[string]any{"approx_events": target.Len()})
	stats := tac.New(f.repo)
	ranked, err := stats.BestTemplates(target.Events(), target.Weights(), 0)
	if err != nil {
		phTac.End(nil)
		return nil, nil, nil, err
	}
	ranked = blendTACPrior(ranked, f.cfg.TACPrior)
	byName := map[string]*template.Template{}
	for _, t := range f.env.Unit().BaseTemplates() {
		byName[t.Name] = t
	}
	for name, t := range f.extra {
		byName[name] = t
	}
	var best []tac.TemplateScore
	var chosen []*template.Template
	for _, ts := range ranked {
		t, ok := byName[ts.Name]
		if !ok {
			continue
		}
		best = append(best, ts)
		chosen = append(chosen, t)
		if len(best) == f.cfg.TopTemplates {
			break
		}
	}
	phTac.End(map[string]any{"chosen": len(best)})
	if len(best) == 0 || best[0].Score == 0 {
		return nil, nil, nil, fmt.Errorf("core: no existing template shows evidence for the approximated target; widen the neighborhood")
	}
	candidate := MergeTemplates(f.env.Unit().Name()+"_cdg_candidate", chosen)

	phSkel := f.rec.PhaseStart("skeleton", map[string]any{"candidate": candidate.Name})
	skel, err := skeleton.Skeletonize(candidate, skeleton.Options{
		IncludeZeroWeights: f.cfg.IncludeZeroWeights,
		Subranges:          f.cfg.Subranges,
		Mode:               f.cfg.SubrangeMode,
	})
	if err != nil {
		phSkel.End(nil)
		return nil, nil, nil, err
	}
	phSkel.End(map[string]any{"dim": skel.Dim()})
	return best, candidate, skel, nil
}

// optimizeAndHarvest is the one place the flow drives an optimizer
// engine. It optimizes report.Target over report.Skeleton's box from
// x0 (the optimization phase, paper Section IV-E, Algorithm 1), then
// measures the best point standalone as a template called name (the
// harvest, Section IV-F), and fills in the report's optimization and
// best phases, progress, and best weights and template. The harvested
// template joins the repository and the known template bodies, and the
// round counter advances. attrs, when non-nil, are added to both
// phases' start attributes.
//
// With a journal armed, checkpointed iterations replay from opt_iter
// records and the harvest from its harvest record; a run's opt_iter
// records end at its harvest record, so several optimize + harvest
// passes in one flow each replay exactly their own records.
func (f *Flow) optimizeAndHarvest(report *Report, x0 []float64, startScore float64, r *rng.RNG, name string, attrs map[string]any) error {
	model := f.env.Unit().Model()
	skel := report.Skeleton
	optAttrs := map[string]any{
		"iterations": f.cfg.OptIterations, "directions": f.cfg.OptDirections,
		"sims_per_point": f.cfg.OptSims, "start_score": startScore,
	}
	harvestAttrs := map[string]any{"sims": f.cfg.BestSims}
	for k, v := range attrs {
		optAttrs[k] = v
		harvestAttrs[k] = v
	}

	// The n stencil probes of an iteration are independent, so they are
	// submitted as concurrent jobs on the environment's scheduler; batch
	// seeds are assigned in point order, keeping the run bit-identical
	// to sequential evaluation.
	phOpt := f.rec.PhaseStart("optimization", optAttrs)
	// Replay checkpointed iterations: the last opt_iter record carries
	// the engine's complete resumable state and the cumulative phase
	// aggregate, so the engine re-enters at the following iteration.
	engineName := f.cfg.engineName()
	optPhase := coverage.NewCountsFor(model)
	var optResume json.RawMessage
	for {
		var rec optIterRec
		ok, err := f.cur.Take("opt_iter", &rec)
		if err != nil {
			phOpt.End(nil)
			return err
		}
		if !ok {
			break
		}
		if rec.Engine != engineName {
			phOpt.End(nil)
			return fmt.Errorf("core: journal opt_iter record is from engine %q, flow uses %q", rec.Engine, engineName)
		}
		if len(rec.PhaseHits) != model.Size() {
			phOpt.End(nil)
			return fmt.Errorf("core: journal opt_iter record has %d events, want %d", len(rec.PhaseHits), model.Size())
		}
		optPhase = coverage.CountsFromRaw(rec.PhaseHits, rec.PhaseSims)
		optResume = rec.State
		f.env.RestoreCounters(rec.Batches, rec.EnvSims)
	}
	var batchErr error
	checkpoint := func(state json.RawMessage) error {
		// An iteration evaluated on a failed or canceled batch must not
		// reach the journal: its values are not real simulation results.
		if batchErr != nil {
			return batchErr
		}
		if err := f.ctxErr(); err != nil {
			return err
		}
		hits, sims := optPhase.Raw()
		return f.cur.Append("opt_iter", optIterRec{
			Engine: engineName, State: state, PhaseHits: hits, PhaseSims: sims,
			Batches: f.env.Batches(), EnvSims: f.env.Simulations(),
		})
	}
	params, err := f.cfg.engineParams()
	if err != nil {
		phOpt.End(nil)
		return err
	}
	eng, err := opt.New(engineName, opt.EngineConfig{
		X0:          x0,
		Lo:          0,
		Hi:          float64(skel.MaxWeight()),
		TargetValue: f.cfg.TargetValue,
		RNG:         r,
		Recorder:    f.rec,
		Prior:       f.cfg.Prior,
	}, params)
	if err != nil {
		phOpt.End(nil)
		return err
	}
	res, err := opt.Drive(eng, opt.DriveOptions{
		Batch:      f.batchObjective(skel, report.Target, optPhase, &batchErr),
		BatchSize:  f.cfg.OptDirections,
		Context:    f.ctx,
		Checkpoint: checkpoint,
		Resume:     optResume,
	})
	if err == nil && batchErr != nil {
		err = batchErr
	}
	if err != nil {
		phOpt.End(nil)
		return err
	}
	phOpt.End(map[string]any{"best": res.Value, "evals": res.Evals})
	report.Progress = res.History
	report.Phases = append(report.Phases, PhaseStats{
		Name: "optimization",
		Description: fmt.Sprintf("%d iterations x %d tests x %d sims",
			len(res.History), f.cfg.OptDirections+1, f.cfg.OptSims),
		Counts: optPhase,
	})

	// Harvest: measure the best template standalone. The round counter
	// advances only after the phase succeeds, so a failed harvest
	// neither skips a round number nor leaves the report and repository
	// half-updated.
	report.BestWeights = res.X
	phHarvest := f.rec.PhaseStart("harvest", harvestAttrs)
	bestTemplate, err := skel.Instantiate(name, res.X)
	if err != nil {
		phHarvest.End(nil)
		return err
	}
	report.BestTemplate = bestTemplate
	bestCounts, err := f.harvestCounts(bestTemplate)
	if err != nil {
		phHarvest.End(nil)
		return err
	}
	phHarvest.End(map[string]any{"template": bestTemplate.Name})
	report.Phases = append(report.Phases, PhaseStats{
		Name:        "best",
		Description: fmt.Sprintf("%d sims", f.cfg.BestSims),
		Counts:      bestCounts,
	})

	// The harvested template joins the regression suite: record its runs
	// in the repository and keep its body so a refinement round's
	// coarse-grained search may select it.
	f.repo.RecordCounts(bestTemplate.Name, bestCounts)
	f.extra[bestTemplate.Name] = bestTemplate
	f.round++
	return nil
}

// harvestCounts measures the harvested template standalone — from the
// journal when replaying, live (and journaled) otherwise.
func (f *Flow) harvestCounts(tmpl *template.Template) (*coverage.Counts, error) {
	var rec harvestRec
	ok, err := f.cur.Take("harvest", &rec)
	if err != nil {
		return nil, err
	}
	if ok {
		if rec.Name != tmpl.Name || len(rec.Hits) != f.env.Unit().Model().Size() {
			return nil, fmt.Errorf("core: journal harvest record %q does not match template %q", rec.Name, tmpl.Name)
		}
		f.env.RestoreCounters(rec.Batches, rec.EnvSims)
		return coverage.CountsFromRaw(rec.Hits, rec.Sims), nil
	}
	job, err := f.env.Submit(tmpl, f.cfg.BestSims)
	if err != nil {
		return nil, err
	}
	batches, envSims := f.env.Batches(), f.env.Simulations()
	counts := job.Wait()
	if err := f.ctxErr(); err != nil {
		return nil, err
	}
	hits, sims := counts.Raw()
	if err := f.cur.Append("harvest", harvestRec{
		Name: tmpl.Name, Hits: hits, Sims: sims, Batches: batches, EnvSims: envSims,
	}); err != nil {
		return nil, err
	}
	return counts, nil
}

// syncRunStart validates (replay) or records (live) a run's opening
// record: the real targets and the approximated target are pure
// functions of the repository, so a mismatch means the journal belongs
// to a different campaign.
func (f *Flow) syncRunStart(target *neighbors.Target, targetEvents []int) error {
	want := runStartRec{
		Targets:       append([]int{}, targetEvents...),
		ApproxEvents:  target.Events(),
		ApproxWeights: target.Weights(),
	}
	var got runStartRec
	ok, err := f.cur.Take("run_start", &got)
	if err != nil {
		return err
	}
	if !ok {
		return f.cur.Append("run_start", want)
	}
	if !intsEqual(got.Targets, want.Targets) || !intsEqual(got.ApproxEvents, want.ApproxEvents) ||
		!floatsEqual(got.ApproxWeights, want.ApproxWeights) {
		return fmt.Errorf("core: journal run_start record does not match this run's targets (journal belongs to a different campaign)")
	}
	return nil
}

// syncRunDone validates (replay) or records (live) a run's closing
// integrity check.
func (f *Flow) syncRunDone(totalSims uint64) error {
	var got runDoneRec
	ok, err := f.cur.Take("run_done", &got)
	if err != nil {
		return err
	}
	if !ok {
		return f.cur.Append("run_done", runDoneRec{Round: f.round, TotalSims: totalSims})
	}
	if got.Round != f.round || got.TotalSims != totalSims {
		return fmt.Errorf("core: journal run_done record (round %d, %d sims) does not match this run (round %d, %d sims)",
			got.Round, got.TotalSims, f.round, totalSims)
	}
	return nil
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// batchObjective builds the optimizer's objective: every point becomes a
// (template, OptSims) job on the environment's scheduler. Points are
// submitted in order — so batch seeds, and therefore results, match a
// sequential evaluation exactly — and waited on in order, keeping the
// phase aggregate's merge order deterministic too. A failure (closed or
// canceled environment) is parked in errOut and zeros are returned; the
// optimizer's checkpoint hook surfaces the error and aborts the run
// before the poisoned values can be journaled or acted on.
func (f *Flow) batchObjective(skel *skeleton.Skeleton, target *neighbors.Target, phase *coverage.Counts, errOut *error) opt.BatchObjective {
	return func(points [][]float64) []float64 {
		vals := make([]float64, len(points))
		if *errOut != nil {
			return vals
		}
		jobs := make([]*sim.Job, len(points))
		for i, x := range points {
			tmpl, err := skel.Instantiate("cand", x)
			if err != nil {
				*errOut = err
				return vals
			}
			job, err := f.env.Submit(tmpl, f.cfg.OptSims)
			if err != nil {
				*errOut = err
				return vals
			}
			jobs[i] = job
		}
		for i, job := range jobs {
			counts := job.Wait()
			if err := f.ctxErr(); err != nil {
				*errOut = err
				return vals
			}
			phase.Merge(counts)
			vals[i] = target.Score(counts)
		}
		return vals
	}
}

// sample is one evaluated point of the random-sample phase.
type sample struct {
	x      []float64
	counts *coverage.Counts
}

// samplePhase runs the random-sample phase: SampleTemplates uniform
// points in the skeleton's weight box, SampleSims sims each. All points
// are submitted up front and simulated concurrently on the scheduler
// (the coarse-phase sweep); submission order fixes the batch seeds, so
// the result is identical to running them one at a time. It returns the
// individual samples (so several targets can each pick their own best
// starting point from the same simulations) and the phase aggregate.
func (f *Flow) samplePhase(skel *skeleton.Skeleton, r *rng.RNG) ([]sample, *coverage.Counts, error) {
	model := f.env.Unit().Model()
	aggregate := coverage.NewCountsFor(model)
	n := f.cfg.SampleTemplates
	samples := make([]sample, 0, n)
	// Replay prefix: weights are still drawn from the RNG (the stream
	// must advance exactly as the live run's did); the counts come from
	// the journal and the environment's seeding counters are restored so
	// the live remainder draws the original batch seeds.
	for len(samples) < n {
		var rec sampleRec
		ok, err := f.cur.Take("sample", &rec)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			break
		}
		if rec.I != len(samples) || len(rec.Hits) != model.Size() {
			return nil, nil, fmt.Errorf("core: journal sample record %d does not match phase index %d", rec.I, len(samples))
		}
		x := skel.RandomWeights(r)
		counts := coverage.CountsFromRaw(rec.Hits, rec.Sims)
		aggregate.Merge(counts)
		samples = append(samples, sample{x: x, counts: counts})
		f.env.RestoreCounters(rec.Batches, rec.EnvSims)
	}
	first := len(samples)
	if first == n {
		return samples, aggregate, nil
	}
	type pending struct {
		job              *sim.Job
		batches, envSims uint64
	}
	jobs := make([]pending, 0, n-first)
	for i := first; i < n; i++ {
		x := skel.RandomWeights(r)
		tmpl, err := skel.Instantiate(fmt.Sprintf("sample_%03d", i), x)
		if err != nil {
			return nil, nil, err
		}
		job, err := f.env.Submit(tmpl, f.cfg.SampleSims)
		if err != nil {
			return nil, nil, err
		}
		jobs = append(jobs, pending{job, f.env.Batches(), f.env.Simulations()})
		samples = append(samples, sample{x: x})
	}
	for k, p := range jobs {
		counts := p.job.Wait()
		if err := f.ctxErr(); err != nil {
			return nil, nil, err
		}
		aggregate.Merge(counts)
		samples[first+k].counts = counts
		hits, sims := counts.Raw()
		if err := f.cur.Append("sample", sampleRec{
			I: first + k, Hits: hits, Sims: sims, Batches: p.batches, EnvSims: p.envSims,
		}); err != nil {
			return nil, nil, err
		}
	}
	return samples, aggregate, nil
}

// bestSample returns the sampled point with the highest target score,
// and that score.
func bestSample(samples []sample, target *neighbors.Target) ([]float64, float64) {
	best := samples[0].x
	bestScore := target.Score(samples[0].counts)
	for _, s := range samples[1:] {
		if score := target.Score(s.counts); score > bestScore {
			bestScore = score
			best = s.x
		}
	}
	return best, bestScore
}

// MergeTemplates unions the parameters of the given templates (highest
// TAC rank first) into one candidate template. For weight parameters
// appearing in several templates, entries are unioned and each entry
// keeps its maximum weight; range parameters merge to the widest span.
// If the same name appears as different parameter kinds, the
// higher-ranked template's kind wins. This realizes the paper's "the
// parameters in these test-templates are ... the ones used in the
// fine-grained search" with a concrete, deterministic policy.
func MergeTemplates(name string, ts []*template.Template) *template.Template {
	merged := template.New(name)
	for _, t := range ts {
		for _, p := range t.Params {
			existing, ok := merged.Param(p.ParamName())
			if !ok {
				merged.Params = append(merged.Params, p.CloneParam())
				continue
			}
			switch have := existing.(type) {
			case *template.WeightParam:
				add, ok := p.(*template.WeightParam)
				if !ok {
					continue // kind conflict: first (higher-ranked) wins
				}
				for _, e := range add.Entries {
					if cur, ok := have.Entry(e.Label()); ok {
						if e.Weight > cur.Weight {
							for i := range have.Entries {
								if have.Entries[i].Label() == e.Label() {
									have.Entries[i].Weight = e.Weight
								}
							}
						}
						continue
					}
					have.Entries = append(have.Entries, e)
				}
			case *template.RangeParam:
				add, ok := p.(*template.RangeParam)
				if !ok {
					continue
				}
				if add.Lo < have.Lo {
					have.Lo = add.Lo
				}
				if add.Hi > have.Hi {
					have.Hi = add.Hi
				}
			}
		}
	}
	return merged
}
