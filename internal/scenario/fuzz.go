package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"repro/internal/rng"
	"repro/internal/runner"
)

// Options configures a fuzz session. The zero value runs nothing; set
// Runs. Results are a pure function of (MasterSeed, FirstIndex, Runs) —
// Workers only changes wall-clock time, never output.
type Options struct {
	// Runs is the number of scenarios to generate and execute.
	Runs int
	// MasterSeed keys the scenario stream (see Generate).
	MasterSeed int64
	// FirstIndex offsets into the stream; a session over [0, k) and one
	// over [k, 2k) together equal one session over [0, 2k).
	FirstIndex int64
	// Workers caps concurrency (0 = GOMAXPROCS, 1 = serial). Parallel runs
	// are bit-identical to serial by the runner's determinism contract.
	Workers int
	// ShrinkBudget bounds candidate executions per failing scenario
	// (0 = DefaultShrinkBudget).
	ShrinkBudget int
	// Context cancels the session (nil = background). Scenarios not yet
	// started when it fires are skipped and reported in Summary.Skipped.
	Context context.Context
	// OnRun, when non-nil, receives monotone progress (done, total).
	OnRun func(done, total int)
	// Progress, when non-nil, receives monotone progress plus the running
	// violation count — the hook behind cmd/fuzz's periodic progress
	// lines. Calls are serialized; violations counts scenarios whose
	// oracle check failed among the done ones.
	Progress func(done, total int, violations int64)
	// Monitor, when non-nil, observes per-worker cell lifecycle (e.g. a
	// telemetry.Watchdog spotting stuck scenarios in a long session).
	// Observation-only: it cannot affect results.
	Monitor runner.Monitor
	// Corpus, when non-nil, turns the session coverage-guided: MutateFrac
	// of the budget mutates corpus entries (snapshotted at session start)
	// instead of sampling fresh, and runs judged interesting — a novel
	// coverage feature tuple, or an envelope-tightness ratio in the top
	// decile of everything observed — are admitted back into the corpus.
	// The session, including the corpus it leaves behind, is a pure
	// function of (MasterSeed, FirstIndex, Runs, input corpus).
	Corpus *Corpus
	// MutateFrac is the fraction of the budget spent mutating corpus
	// entries (ignored without Corpus; the rest samples fresh).
	MutateFrac float64
}

// Summary aggregates one fuzz session. All counters are deterministic in
// (MasterSeed, FirstIndex, Runs); Reports appear in scenario-index order.
type Summary struct {
	Schema     string `json:"schema"`
	MasterSeed int64  `json:"master_seed"`
	FirstIndex int64  `json:"first_index"`
	Runs       int    `json:"runs"`
	// Completed counts runs that finished their protocol's promise;
	// Unpromised counts runs carrying no completion promise (naive).
	Completed  int `json:"completed"`
	Unpromised int `json:"unpromised"`
	// EquivalenceChecked counts runs that executed the unpooled twin;
	// ShardChecked counts runs that executed the sharded twin.
	EquivalenceChecked int `json:"equivalence_checked"`
	ShardChecked       int `json:"shard_checked"`
	// Crashes and Messages total the injected crashes and simulated
	// messages across the session.
	Crashes  int64 `json:"crashes"`
	Messages int64 `json:"messages"`
	// ByProtocol counts runs per protocol (JSON marshals keys sorted, so
	// encoded summaries are byte-stable).
	ByProtocol map[string]int `json:"by_protocol"`
	// Skipped counts scenarios cancelled before starting.
	Skipped int `json:"skipped"`
	// Envelopes holds per-oracle envelope-tightness percentiles, keyed by
	// oracle name (OracleMessageEnvelope, OracleTimeEnvelope). A run
	// contributes the ratio actual/bound whenever the envelope applies.
	Envelopes map[string]*EnvelopeStats `json:"envelopes,omitempty"`
	// Corpus aggregates the coverage-guided campaign's steering counters
	// (nil for blind sessions).
	Corpus *CorpusStats `json:"corpus,omitempty"`
	// Reports carries one replayable report per violated scenario.
	Reports []Report `json:"reports,omitempty"`
}

// CorpusStats summarizes the corpus side of a coverage-guided session.
// Hit rate is Admitted/MutatedRuns, novelty rate NovelFeatures/(Fresh+
// Mutated) — cmd/fuzz derives both for the bench artifact.
type CorpusStats struct {
	// Size is the corpus size after the session; Seeded its size at start.
	Size   int `json:"size"`
	Seeded int `json:"seeded"`
	// Replayed counts seed entries re-executed through the oracle catalog.
	Replayed int `json:"replayed"`
	// FreshRuns and MutatedRuns split the session budget by origin.
	FreshRuns   int `json:"fresh_runs"`
	MutatedRuns int `json:"mutated_runs"`
	// NovelFeatures counts runs whose coverage tuple was new; NearMisses
	// counts runs admitted on an envelope top-decile or record ratio.
	NovelFeatures int `json:"novel_features"`
	NearMisses    int `json:"near_misses"`
	// Admitted and Evicted count corpus turnover during the session.
	Admitted int `json:"admitted"`
	Evicted  int `json:"evicted"`
	// MaxTightness is the per-oracle maximum envelope ratio ever seen —
	// across the surviving corpus and this session's runs.
	MaxTightness map[string]float64 `json:"max_tightness,omitempty"`
}

// merge folds another session's corpus stats: counters add, Size (and
// MaxTightness) track the latest state, Seeded keeps the first.
func (s *CorpusStats) merge(o *CorpusStats) {
	s.Size = o.Size
	s.Replayed += o.Replayed
	s.FreshRuns += o.FreshRuns
	s.MutatedRuns += o.MutatedRuns
	s.NovelFeatures += o.NovelFeatures
	s.NearMisses += o.NearMisses
	s.Admitted += o.Admitted
	s.Evicted += o.Evicted
	for k, v := range o.MaxTightness {
		if s.MaxTightness == nil {
			s.MaxTightness = map[string]float64{}
		}
		if v > s.MaxTightness[k] {
			s.MaxTightness[k] = v
		}
	}
}

// SummarySchema identifies the Summary JSON layout. v2 added the
// envelope-tightness block; v3 the sharded-twin counter; v4 the
// coverage-guided corpus block.
const SummarySchema = "repro.fuzz.summary/v4"

// Encode renders the summary as deterministic, indented JSON with a
// trailing newline. Map keys marshal sorted, so equal summaries are equal
// bytes — the property behind cmd/fuzz's reproducibility contract.
func (s *Summary) Encode() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// cellOutcome is one scenario's contribution to the summary.
type cellOutcome struct {
	protocol     string
	completed    bool
	unpromised   bool
	twinRan      bool
	shardTwinRan bool
	crashes      int
	messages     int64
	report       *Report

	// Envelope tightness ratios (actual/bound); the ok flags mark whether
	// the corresponding envelope applied to this run.
	msgTight    float64
	msgTightOK  bool
	timeTight   float64
	timeTightOK bool

	// Coverage-guided bookkeeping: the spec that ran, its coverage tuple,
	// and — for mutants — the digest of the corpus entry it came from.
	spec    Spec
	feature Feature
	parent  string
	mutated bool
}

// tightness collects the outcome's envelope ratios keyed by oracle.
func (out *cellOutcome) tightness() map[string]float64 {
	t := map[string]float64{}
	if out.msgTightOK {
		t[OracleMessageEnvelope] = out.msgTight
	}
	if out.timeTightOK {
		t[OracleTimeEnvelope] = out.timeTight
	}
	return t
}

// Fuzz generates and executes opts.Runs scenarios, checks every execution
// against the oracle catalog, shrinks failures, and aggregates a Summary.
// The session is deterministic: equal options (apart from Workers,
// Context and OnRun) produce identical summaries, byte for byte once
// encoded.
func Fuzz(opts Options) (*Summary, error) {
	if opts.Runs < 0 {
		return nil, fmt.Errorf("scenario: Runs = %d", opts.Runs)
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	var violations atomic.Int64
	onCell := opts.OnRun
	if opts.Progress != nil {
		onCell = func(done, total int) {
			if opts.OnRun != nil {
				opts.OnRun(done, total)
			}
			opts.Progress(done, total, violations.Load())
		}
	}
	// Coverage steering: snapshot the corpus before fanning out — every
	// cell's spec is then a pure function of (MasterSeed, index, snapshot)
	// regardless of worker interleaving; admissions fold in afterwards, in
	// index order.
	var snapshot []*CorpusEntry
	if opts.Corpus != nil {
		snapshot = opts.Corpus.Entries()
	}
	outcomes, errs, _ := runner.Map(ctx, opts.Runs,
		runner.Options{Workers: opts.Workers, OnCell: onCell, Monitor: opts.Monitor},
		func(_ context.Context, cell int) (cellOutcome, error) {
			index := opts.FirstIndex + int64(cell)
			spec, parent := steerSpec(opts.MasterSeed, index, opts.MutateFrac, snapshot)
			out, err := fuzzSpec(spec, opts.MasterSeed, index, opts.ShrinkBudget)
			out.parent, out.mutated = parent, parent != ""
			if err == nil && out.report != nil {
				violations.Add(1)
			}
			return out, err
		})

	sum := &Summary{
		Schema:     SummarySchema,
		MasterSeed: opts.MasterSeed,
		FirstIndex: opts.FirstIndex,
		ByProtocol: map[string]int{},
	}
	var cov *coverage
	if opts.Corpus != nil {
		sum.Corpus = &CorpusStats{Seeded: len(snapshot)}
		cov = newCoverage()
		for _, e := range snapshot {
			cov.seed(e)
		}
	}
	for i, out := range outcomes {
		if errs[i] != nil {
			if ctx.Err() != nil && errs[i] == ctx.Err() {
				sum.Skipped++
				continue
			}
			return nil, fmt.Errorf("scenario: run %d: %w", opts.FirstIndex+int64(i), errs[i])
		}
		foldOutcome(sum, out)
		if cov == nil {
			continue
		}
		if out.mutated {
			sum.Corpus.MutatedRuns++
		} else {
			sum.Corpus.FreshRuns++
		}
		tight := out.tightness()
		why, novel := cov.judge(out.feature, tight)
		if novel {
			sum.Corpus.NovelFeatures++
		}
		if why != "" && !novel {
			sum.Corpus.NearMisses++
		}
		// Violating runs already leave as shrunk reports; the corpus is for
		// passing runs at the coverage frontier.
		if why != "" && out.report == nil {
			added, evicted := opts.Corpus.Admit(out.spec, out.feature, tight, why, out.parent)
			if added {
				sum.Corpus.Admitted++
			}
			sum.Corpus.Evicted += evicted
		}
	}
	if cov != nil {
		sum.Corpus.Size = opts.Corpus.Len()
		sum.Corpus.MaxTightness = cov.maxTightness()
	}
	return sum, nil
}

// steerSpec picks the index-th scenario of a steered session: a mutation
// of a snapshot entry for MutateFrac of the budget, a fresh Generate draw
// otherwise. Pure in its arguments. The second result is the parent
// entry's digest ("" for fresh draws).
func steerSpec(master, index int64, frac float64, snapshot []*CorpusEntry) (Spec, string) {
	if len(snapshot) == 0 || frac <= 0 {
		return Generate(master, index), ""
	}
	r := rng.New(runner.DeriveSeed(master, "steer", index))
	if r.Float64() >= frac {
		return Generate(master, index), ""
	}
	e := snapshot[r.Intn(len(snapshot))]
	m := Mutate(e.Spec, r)
	if m.Validate() != nil {
		// Operators preserve validity by construction; this is a belt for
		// hand-edited corpus entries near the domain edges.
		return Generate(master, index), ""
	}
	return m, e.Digest
}

// foldOutcome adds one finished run's counters to the summary.
func foldOutcome(sum *Summary, out cellOutcome) {
	sum.Runs++
	sum.ByProtocol[out.protocol]++
	if out.completed {
		sum.Completed++
	}
	if out.unpromised {
		sum.Unpromised++
	}
	if out.twinRan {
		sum.EquivalenceChecked++
	}
	if out.shardTwinRan {
		sum.ShardChecked++
	}
	sum.Crashes += int64(out.crashes)
	sum.Messages += out.messages
	if out.msgTightOK {
		sum.envelope(OracleMessageEnvelope).observe(out.msgTight)
	}
	if out.timeTightOK {
		sum.envelope(OracleTimeEnvelope).observe(out.timeTight)
	}
	if out.report != nil {
		sum.Reports = append(sum.Reports, *out.report)
	}
}

// envelope returns (creating on demand) the stats bucket for one oracle.
func (s *Summary) envelope(oracle string) *EnvelopeStats {
	if s.Envelopes == nil {
		s.Envelopes = map[string]*EnvelopeStats{}
	}
	e := s.Envelopes[oracle]
	if e == nil {
		e = newEnvelopeStats()
		s.Envelopes[oracle] = e
	}
	return e
}

// Merge folds another session's summary into this one: counters add,
// per-protocol counts and envelope histograms merge exactly, reports
// append in order. cmd/fuzz's duration mode chains batches with it; two
// merged half-sessions equal the whole session.
func (s *Summary) Merge(o *Summary) {
	s.Runs += o.Runs
	s.Completed += o.Completed
	s.Unpromised += o.Unpromised
	s.EquivalenceChecked += o.EquivalenceChecked
	s.ShardChecked += o.ShardChecked
	s.Crashes += o.Crashes
	s.Messages += o.Messages
	s.Skipped += o.Skipped
	for k, v := range o.ByProtocol {
		if s.ByProtocol == nil {
			s.ByProtocol = map[string]int{}
		}
		s.ByProtocol[k] += v
	}
	for k, e := range o.Envelopes {
		s.envelope(k).merge(e)
	}
	if o.Corpus != nil {
		if s.Corpus == nil {
			c := *o.Corpus
			s.Corpus = &c
		} else {
			s.Corpus.merge(o.Corpus)
		}
	}
	s.Reports = append(s.Reports, o.Reports...)
}

// fuzzSpec executes, checks and (on violation) shrinks one scenario. Pure
// in (spec, master, index, shrinkBudget); master and index only label the
// report of a violating run.
func fuzzSpec(spec Spec, master, index int64, shrinkBudget int) (cellOutcome, error) {
	ex, err := Execute(spec)
	if err != nil {
		return cellOutcome{}, err
	}
	out := cellOutcome{
		protocol:     spec.Protocol,
		completed:    ex.Res.Completed,
		unpromised:   !spec.ExpectComplete,
		twinRan:      ex.TwinRan,
		shardTwinRan: ex.ShardTwinRan,
		crashes:      ex.Res.Crashes,
		messages:     ex.Res.Messages,
		spec:         spec,
		feature:      featureOf(ex),
	}
	if bound := MessageEnvelope(spec); bound > 0 {
		out.msgTight = float64(ex.Res.Messages) / bound
		out.msgTightOK = true
	}
	// Time envelopes quantify completion, so only promised, completed runs
	// contribute (mirroring checkTimeEnvelope's applicability rule).
	if spec.ExpectComplete && ex.Res.Completed {
		if bound := TimeEnvelope(spec); bound > 0 {
			out.timeTight = float64(ex.Res.TimeComplexity) / bound
			out.timeTightOK = true
		}
	}
	violations := CheckAll(ex)
	if len(violations) == 0 {
		return out, nil
	}
	minimized, shrinkRuns := Shrink(spec, violations[0].Oracle, shrinkBudget)
	out.report = &Report{
		Schema:     ReportSchema,
		MasterSeed: master,
		Index:      index,
		Label:      spec.Label(),
		Violations: violations,
		Spec:       spec,
		Minimized:  minimized,
		ShrinkRuns: shrinkRuns,
	}
	return out, nil
}
