// Command bench runs the pinned gossip benchmark suite and emits the
// machine-readable artifact behind the repository's performance
// trajectory: a schema-versioned BENCH_gossip.json with steps/run,
// msgs/run, wall-clock and allocation figures for every cell. CI
// regenerates the artifact on every push (quick scale) and nightly (full
// and large scales), and the perf-regression gate compares fresh results
// against the committed baseline so a complexity regression fails loudly
// instead of drifting in.
//
//	bench -quick -out BENCH_gossip.json     # the CI pinned suite
//	bench -out BENCH_gossip.json            # full scale (nightly)
//	bench -large -out BENCH_large.json      # large-n sweep, lean trackers (nightly)
//	bench -xlarge -out BENCH_xlarge.json    # sharded lean sweep beyond the large tier (nightly)
//	bench -million -out BENCH_million.json  # push-pull at n = 10⁶, lean and sharded (nightly)
//	bench -check BENCH_gossip.json          # validate an existing artifact
//	bench -quick -compare BENCH_gossip.json # run the suite, then gate against a baseline
//	bench -compare OLD.json NEW.json        # gate one artifact against another
//	bench -quick -shards 4 -compare BENCH_gossip.json  # sharded kernel vs the serial baseline
//	bench -xlarge -compare BENCH_large.json -overlap   # gate the cells shared with the large tier
//
// Comparison semantics: the paper's complexity measures (steps, messages,
// bytes, failure counts) are deterministic functions of the pinned seeds,
// so any difference is a behavioral regression and fails the gate
// exactly. Harness-cost measures (wall clock, allocations) are machine-
// and load-dependent: they are recorded for the trajectory but not
// compared. Timing is gated by the benchmark under benchmark/ instead.
//
// The suite is pinned on purpose: clique, ring and Erdős–Rényi topologies
// at several n, under the standard oblivious adversary, with seeds derived
// per cell via the runner's seed policy. Changing what an existing cell
// means is a schema event — bump the schema version; adding cells or
// scales is additive and keeps the version.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/assemble"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topology"
)

// schemaVersion identifies the artifact layout and the meaning of the
// pinned cells. Bump it when either changes; CI validates it exactly.
const schemaVersion = "repro.bench.gossip/v1"

// benchFile is the artifact layout.
type benchFile struct {
	Schema    string `json:"schema"`
	Generated string `json:"generated"` // RFC 3339 UTC
	GoVersion string `json:"go_version"`
	Scale     string `json:"scale"` // "quick", "full", "large", "xlarge" or "million"
	Workers   int    `json:"workers"`
	Seeds     int    `json:"seeds"`
	// Shards is the -shards flag the suite ran with (0 = per-cell
	// defaults). Like workers it is harness configuration: the complexity
	// measures are identical for every value.
	Shards  int          `json:"shards,omitempty"`
	Results []benchEntry `json:"results"`
}

// benchEntry is one pinned (protocol, topology, n) cell.
type benchEntry struct {
	Name     string `json:"name"`
	Protocol string `json:"protocol"`
	Topology string `json:"topology"`
	N        int    `json:"n"`
	F        int    `json:"f"`
	Seeds    int    `json:"seeds"`
	Failures int    `json:"failures"`
	// Lean marks cells run with O(1) tracker bookkeeping (the large-n
	// sweeps); completion-time milestones stay exact, per-rumor times are
	// upper bounds. Absent/false for the quick and full suites.
	Lean bool `json:"lean,omitempty"`
	// Shards is the superstep shard count the cell ran with (0 = serial
	// kernel). Execution detail only: sharded cells are byte-identical to
	// serial ones on every complexity measure, which the overlap compare
	// against the serial large tier gates nightly.
	Shards int `json:"shards,omitempty"`
	// The paper's two complexity measures, averaged over seeds.
	StepsPerRun float64 `json:"steps_per_run"`
	StepsStd    float64 `json:"steps_std"`
	MsgsPerRun  float64 `json:"msgs_per_run"`
	MsgsStd     float64 `json:"msgs_std"`
	BytesPerRun float64 `json:"bytes_per_run"`
	// BytesKnown distinguishes a measured bytes_per_run from payloads that
	// simply do not report sizes (sim.Result.BytesKnown over the cell).
	BytesKnown bool `json:"bytes_known,omitempty"`
	// Harness cost of the cell: wall clock across the whole seed grid and
	// allocator pressure per run.
	WallNs           int64   `json:"wall_ns"`
	AllocsPerRun     float64 `json:"allocs_per_run"`
	AllocBytesPerRun float64 `json:"alloc_bytes_per_run"`
}

// cellSpec pins one suite cell family. The f policy mirrors the Table 1
// design points: f = n/4 on the clique (tears at its design point just
// under n/2), f = 0 on sparse families so the axis stays purely
// topological, f = 0 on the large sweep so memory stays the protocol's.
type cellSpec struct {
	proto    string
	family   string // "" = complete graph
	fOf      func(n int) int
	ns       []int
	d, delta int  // message delay and scheduling bounds (0 = default 2)
	lean     bool // large-n cells use O(1) tracker bookkeeping
	shards   int  // superstep shards (0 = serial kernel)
	// pushC overrides core.Params.PushPullC for the cell (0 = default).
	// The million tier lowers it so the deterministic n·B push budget —
	// and with it the nightly wall clock — stays bounded at n = 10⁶.
	pushC float64
}

// suite returns the pinned cells for a scale ("quick", "full", "large",
// "xlarge" or "million").
func suite(scale string) []cellSpec {
	quarter := func(n int) int { return n / 4 }
	minority := func(n int) int { return (n - 1) / 2 }
	zero := func(int) int { return 0 }
	if scale == "million" {
		// The first million-node runs. The epidemic protocols' n-bit rumor
		// sets cap the xlarge tier well below 10⁶ — but push-pull carries
		// O(1) state per process (an informed bit and a push budget), so
		// with lean trackers and the sharded kernel the memory wall falls
		// away and the axis is pure event throughput. PushPullC drops from
		// its default 6 to 3, halving the deterministic n·B push budget
		// (still ample at n = 10⁶: B = 60) to keep the nightly wall clock
		// bounded; the budget is recorded per cell via the exact message
		// counts, so any drift still fails the compare gate.
		auto := runtime.NumCPU()
		if auto < 2 {
			auto = 2
		}
		return []cellSpec{
			{proto: "push-pull", family: "", fOf: zero, lean: true, shards: auto, pushC: 3, ns: []int{1000000}},
			{proto: "push-pull", family: topology.FamilyErdosRenyi, fOf: zero, lean: true, shards: auto, pushC: 3, ns: []int{1000000}},
		}
	}
	if scale == "xlarge" {
		// The xlarge sweep drives the sharded superstep kernel past the
		// large tier's scales, lean and sharded one-per-CPU. The first n of
		// every family duplicates a large-tier cell exactly (same name,
		// parameters and derived seeds), so `-compare BENCH_large.json
		// -overlap` gates sharded ≡ serial byte-identically at the artifact
		// level. Scales are sized to measured memory and nightly wall-clock
		// budgets, not ambition: tears' per-process audience state and the
		// epidemic protocols' n-bit rumor sets grow superlinearly, which is
		// what caps this sweep well below n = 10⁶ (see README "Sharded
		// execution" for the arithmetic). The million tier above crosses
		// that wall with the O(1)-state push-pull family instead.
		auto := runtime.NumCPU()
		if auto < 2 {
			auto = 2 // always drive the sharded engine, even on one CPU
		}
		return []cellSpec{
			{proto: "tears", family: "", fOf: zero, lean: true, shards: auto, ns: []int{20000, 35000}},
			{proto: "sync-epidemic", family: "", fOf: zero, lean: true, shards: auto, d: 1, delta: 1, ns: []int{50000, 100000}},
			{proto: "naive", family: topology.FamilyErdosRenyi, fOf: zero, lean: true, shards: auto, ns: []int{50000, 100000}},
		}
	}
	if scale == "large" {
		// The large-n sweep exercises the allocation-free kernel at 10×–200×
		// the classic suite's n. Protocols are chosen to be feasible at this
		// scale: tears (majority gossip, Θ(n^1.75) messages, O(1) tracker),
		// the synchronous epidemic baseline, and the naive epidemic on
		// sparse Erdős–Rényi graphs. ears is excluded by design — its
		// informed list is Θ(n²) bits per process, which no pooling absorbs.
		return []cellSpec{
			{proto: "tears", family: "", fOf: zero, lean: true, ns: []int{8192, 20000}},
			{proto: "sync-epidemic", family: "", fOf: zero, lean: true, d: 1, delta: 1, ns: []int{20000, 50000}},
			{proto: "naive", family: topology.FamilyErdosRenyi, fOf: zero, lean: true, ns: []int{20000, 50000}},
		}
	}
	ns := []int{64, 128, 256}
	if scale == "quick" {
		ns = []int{32, 64}
	}
	return []cellSpec{
		{proto: "trivial", family: "", fOf: quarter, ns: ns},
		{proto: "ears", family: "", fOf: quarter, ns: ns},
		{proto: "sears", family: "", fOf: quarter, ns: ns},
		{proto: "tears", family: "", fOf: minority, ns: ns},
		{proto: "ears", family: topology.FamilyRing, fOf: zero, ns: ns},
		{proto: "ears", family: topology.FamilyErdosRenyi, fOf: zero, ns: ns},
		{proto: "tears", family: topology.FamilyErdosRenyi, fOf: zero, ns: ns},
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		quick   = fs.Bool("quick", false, "CI scale (smaller n sweep and fewer seeds)")
		large   = fs.Bool("large", false, "large-n sweep (n up to 50000, lean trackers)")
		xlarge  = fs.Bool("xlarge", false, "sharded lean sweep beyond the large tier (n up to 100000)")
		million = fs.Bool("million", false, "million-node push-pull cells, lean and sharded")
		outPath = fs.String("out", "BENCH_gossip.json", "artifact path")
		seeds   = fs.Int("seeds", 0, "seeds per cell (0 = scale default: 3 quick, 5 full, 2 large/xlarge, 1 million)")
		workers = fs.Int("workers", 0, "worker pool for each cell's seed grid (0 = GOMAXPROCS)")
		shards  = fs.Int("shards", 0, "superstep shards per run (0 = per-cell defaults; results are identical for every value)")
		check   = fs.String("check", "", "validate an existing artifact instead of running the suite")
		compare = fs.String("compare", "", "baseline artifact to gate against (with a positional NEW.json: compare files without running)")
		overlap = fs.Bool("overlap", false, "with -compare: gate only the cells present in both artifacts (cross-scale, e.g. -xlarge vs the large baseline)")
		telem   = fs.String("telemetry", "", "directory for pprof CPU/heap profiles and an instrumented sample run (metrics.om, trace.json, run.ndjson)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *check != "" {
		if err := checkFile(*check); err != nil {
			return err
		}
		fmt.Fprintf(out, "bench: %s is a valid %s artifact\n", *check, schemaVersion)
		return nil
	}
	if *compare != "" && fs.NArg() > 0 {
		// File-vs-file mode: no suite run.
		fresh, err := loadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		return compareFiles(*compare, fresh, *overlap, out)
	}
	if fs.NArg() > 0 {
		// Positional arguments are only meaningful in file-vs-file compare
		// mode; anything else is a mistyped flag (e.g. a forgotten -check),
		// and running the suite instead could clobber the committed baseline.
		return fmt.Errorf("unexpected argument %q (did you mean -check %s or -compare BASE.json %s?)",
			fs.Arg(0), fs.Arg(0), fs.Arg(0))
	}
	if n := btoi(*quick) + btoi(*large) + btoi(*xlarge) + btoi(*million); n > 1 {
		return fmt.Errorf("-quick, -large, -xlarge and -million are mutually exclusive")
	}
	if *overlap && *compare == "" {
		return fmt.Errorf("-overlap only makes sense with -compare")
	}
	if *shards < 0 {
		return fmt.Errorf("-shards %d: must be >= 0", *shards)
	}

	scale := "full"
	cellSeeds := 5
	switch {
	case *quick:
		scale, cellSeeds = "quick", 3
	case *large:
		scale, cellSeeds = "large", 2
	case *xlarge:
		scale, cellSeeds = "xlarge", 2
	case *million:
		scale, cellSeeds = "million", 1
	}
	if *seeds > 0 {
		cellSeeds = *seeds
	}

	// Telemetry capture wraps the whole suite: the CPU profile covers the
	// cells only — the instrumented sample run happens after prof.stop() so
	// it never pollutes the profile. All of it is observation-only: cells
	// and the compare gate are identical with -telemetry on or off.
	var prof *profiles
	if *telem != "" {
		var err error
		prof, err = startProfiles(*telem)
		if err != nil {
			return err
		}
	}

	file := benchFile{
		Schema:    schemaVersion,
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Scale:     scale,
		Workers:   runner.Workers(*workers),
		Seeds:     cellSeeds,
		Shards:    *shards,
	}
	for _, cell := range suite(scale) {
		for _, n := range cell.ns {
			family := cell.family
			label := family
			if label == "" {
				label = topology.FamilyComplete
			}
			f := cell.fOf(n)
			d, delta := cell.d, cell.delta
			if d == 0 {
				d = 2
			}
			if delta == 0 {
				delta = 2
			}
			name := fmt.Sprintf("%s/%s/n=%d", cell.proto, label, n)
			run := assemble.Run{
				Protocol: cell.proto, N: n, F: f,
				D: sim.Time(d), Delta: sim.Time(delta),
				Gossip:   core.Params{Lean: cell.lean, PushPullC: cell.pushC},
				Topology: topology.Spec{Family: family},
				Shards:   cell.shards,
			}
			if *shards > 0 {
				run.Shards = *shards
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			start := time.Now()
			// Each cell gets its own derived seed stream, so cells never
			// share randomness just because they share run indices.
			m, err := experiments.Measure(experiments.Point{Run: run, Seeds: cellSeeds, SeedLabel: name},
				experiments.Env{Workers: *workers})
			wall := time.Since(start)
			runtime.ReadMemStats(&after)
			// A cell where every run failed is a suite bug on the clique,
			// but data on sparse families; either way the artifact records
			// the failure count instead of aborting the suite.
			if err != nil && m.Runs == 0 {
				return fmt.Errorf("cell %s: %w", name, err)
			}
			entry := benchEntry{
				Name:     name,
				Protocol: cell.proto,
				Topology: label,
				N:        n, F: f,
				Seeds:            cellSeeds,
				Failures:         m.Failures,
				Lean:             cell.lean,
				Shards:           run.Shards,
				StepsPerRun:      m.Time.Mean,
				StepsStd:         m.Time.Std,
				MsgsPerRun:       m.Messages.Mean,
				MsgsStd:          m.Messages.Std,
				BytesPerRun:      m.Bytes.Mean,
				BytesKnown:       m.BytesKnown,
				WallNs:           wall.Nanoseconds(),
				AllocsPerRun:     float64(after.Mallocs-before.Mallocs) / float64(cellSeeds),
				AllocBytesPerRun: float64(after.TotalAlloc-before.TotalAlloc) / float64(cellSeeds),
			}
			file.Results = append(file.Results, entry)
			fmt.Fprintf(out, "%-32s steps/run=%-9.1f msgs/run=%-11.1f wall=%-10s allocs/run=%.0f\n",
				name, entry.StepsPerRun, entry.MsgsPerRun, wall.Round(time.Millisecond), entry.AllocsPerRun)
		}
	}

	if err := validate(&file); err != nil {
		return fmt.Errorf("generated artifact is invalid: %w", err)
	}
	data, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "bench: wrote %d cells to %s (%s, %d seeds, %d workers)\n",
		len(file.Results), *outPath, file.Scale, file.Seeds, file.Workers)
	if prof != nil {
		if err := prof.stop(); err != nil {
			return err
		}
		if err := captureSampleRun(*telem, out); err != nil {
			return err
		}
	}
	if *compare != "" {
		return compareFiles(*compare, &file, *overlap, out)
	}
	return nil
}

// btoi counts a set flag.
func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// loadFile parses and validates an artifact on disk.
func loadFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file benchFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := validate(&file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &file, nil
}

// checkFile parses and validates an artifact on disk.
func checkFile(path string) error {
	_, err := loadFile(path)
	return err
}

// boolMetric maps a bool onto the compare gate's float metric space.
func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// compareFiles gates fresh results against a committed baseline: exact
// equality on the deterministic complexity measures (any drift is a
// behavioral regression and fails). Cost measures are not compared.
//
// In overlap mode the two artifacts may come from different scales (the
// nightly xlarge sweep against the large baseline): only the cells present
// in both are gated — but at least one must be, and shared cells must
// agree on their per-cell seed counts or the means are incomparable.
// Baseline-only cells are noted, not failed.
func compareFiles(basePath string, fresh *benchFile, overlap bool, out io.Writer) error {
	base, err := loadFile(basePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	if !overlap && (base.Scale != fresh.Scale || base.Seeds != fresh.Seeds) {
		return fmt.Errorf("incomparable grids: baseline is %s/%d seeds, fresh is %s/%d seeds (use -overlap for cross-scale gating)",
			base.Scale, base.Seeds, fresh.Scale, fresh.Seeds)
	}
	freshByName := make(map[string]benchEntry, len(fresh.Results))
	for _, e := range fresh.Results {
		freshByName[e.Name] = e
	}
	var failures []string
	shared := 0
	for _, b := range base.Results {
		f, ok := freshByName[b.Name]
		if !ok {
			if overlap {
				fmt.Fprintf(out, "bench: note: baseline cell %s not in fresh results (outside the overlap)\n", b.Name)
				continue
			}
			failures = append(failures, fmt.Sprintf("%s: cell present in baseline but missing from fresh results", b.Name))
			continue
		}
		delete(freshByName, b.Name)
		shared++
		if b.Seeds != f.Seeds {
			failures = append(failures, fmt.Sprintf(
				"%s: seeds = %d, baseline %d (seed grids differ; means are incomparable)",
				b.Name, f.Seeds, b.Seeds))
			continue
		}
		exact := []struct {
			metric     string
			want, have float64
		}{
			{"steps/run", b.StepsPerRun, f.StepsPerRun},
			{"steps-std", b.StepsStd, f.StepsStd},
			{"msgs/run", b.MsgsPerRun, f.MsgsPerRun},
			{"msgs-std", b.MsgsStd, f.MsgsStd},
			{"bytes/run", b.BytesPerRun, f.BytesPerRun},
			{"bytes-known", boolMetric(b.BytesKnown), boolMetric(f.BytesKnown)},
			{"failures", float64(b.Failures), float64(f.Failures)},
		}
		for _, c := range exact {
			if c.want != c.have {
				failures = append(failures, fmt.Sprintf(
					"%s: %s = %v, baseline %v (complexity metrics are deterministic; this is a behavioral change)",
					b.Name, c.metric, c.have, c.want))
			}
		}
	}
	for name := range freshByName {
		fmt.Fprintf(out, "bench: note: new cell %s has no baseline yet\n", name)
	}
	if overlap && shared == 0 {
		return fmt.Errorf("compare -overlap: no cells shared between %s (%s) and fresh results (%s); nothing was gated",
			basePath, base.Scale, fresh.Scale)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(out, "bench: FAIL", f)
		}
		return fmt.Errorf("compare: %d complexity mismatches against %s", len(failures), basePath)
	}
	fmt.Fprintf(out, "bench: compare OK against %s (%d cells exact)\n", basePath, shared)
	return nil
}

// validate enforces the schema invariants CI relies on.
func validate(f *benchFile) error {
	if f.Schema != schemaVersion {
		return fmt.Errorf("schema %q, want %q", f.Schema, schemaVersion)
	}
	if _, err := time.Parse(time.RFC3339, f.Generated); err != nil {
		return fmt.Errorf("generated timestamp: %w", err)
	}
	switch f.Scale {
	case "quick", "full", "large", "xlarge", "million":
	default:
		return fmt.Errorf("scale %q, want quick|full|large|xlarge|million", f.Scale)
	}
	if f.Workers <= 0 || f.Seeds <= 0 {
		return fmt.Errorf("workers=%d seeds=%d must be positive", f.Workers, f.Seeds)
	}
	if len(f.Results) == 0 {
		return fmt.Errorf("no results")
	}
	seen := map[string]bool{}
	for i, e := range f.Results {
		switch {
		case e.Name == "" || e.Protocol == "" || e.Topology == "":
			return fmt.Errorf("results[%d]: missing name/protocol/topology", i)
		case seen[e.Name]:
			return fmt.Errorf("results[%d]: duplicate cell %q", i, e.Name)
		case e.N <= 0 || e.F < 0 || e.F >= e.N:
			return fmt.Errorf("results[%d] %s: bad n=%d f=%d", i, e.Name, e.N, e.F)
		case e.Seeds <= 0 || e.Failures < 0 || e.Failures > e.Seeds:
			return fmt.Errorf("results[%d] %s: bad seeds=%d failures=%d", i, e.Name, e.Seeds, e.Failures)
		case e.WallNs <= 0:
			return fmt.Errorf("results[%d] %s: bad wall_ns=%d", i, e.Name, e.WallNs)
		}
		// Complexity measures must be present (positive) for any cell with
		// at least one completed run.
		if e.Failures < e.Seeds && (e.StepsPerRun <= 0 || e.MsgsPerRun <= 0) {
			return fmt.Errorf("results[%d] %s: degenerate measures steps=%.1f msgs=%.1f",
				i, e.Name, e.StepsPerRun, e.MsgsPerRun)
		}
		if e.StepsPerRun < 0 || e.MsgsPerRun < 0 || e.StepsStd < 0 || e.MsgsStd < 0 ||
			e.BytesPerRun < 0 || e.AllocsPerRun < 0 || e.AllocBytesPerRun < 0 {
			return fmt.Errorf("results[%d] %s: negative metric", i, e.Name)
		}
		seen[e.Name] = true
	}
	return nil
}
