package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"

	"repro/internal/adversary"
	"repro/internal/assemble"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Telemetry capture (-telemetry DIR): alongside the suite's artifact, the
// directory receives pprof CPU/heap profiles of the whole suite plus one
// fully instrumented sample run exported in every supported format —
// metrics.om (OpenMetrics snapshot: counters, curves as histograms, arena
// and pool gauges), trace.json (Chrome trace-event JSON; open at
// ui.perfetto.dev), and run.ndjson (streaming snapshot lines). The sample
// run is observation-only and independent of the suite cells, so the
// artifact and the compare gate are byte-identical with -telemetry on or
// off.

// Sample-run shape: ears under the standard adversary with crashes — big
// enough that the reach and in-flight curves have structure, small enough
// that the Chrome trace stays a few MB.
const (
	sampleN    = 64
	sampleF    = 16
	sampleSeed = 1
)

// profiles manages the suite-wide pprof capture.
type profiles struct {
	dir string
	cpu *os.File
}

// startProfiles begins CPU profiling into dir/cpu.pprof.
func startProfiles(dir string) (*profiles, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profiles{dir: dir, cpu: f}, nil
}

// stop ends the CPU profile and writes the post-suite heap profile.
func (p *profiles) stop() error {
	pprof.StopCPUProfile()
	if err := p.cpu.Close(); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(p.dir, "heap.pprof"))
	if err != nil {
		return err
	}
	defer f.Close()
	return pprof.WriteHeapProfile(f)
}

// captureSampleRun executes one instrumented run and writes the three
// telemetry exports into dir.
func captureSampleRun(dir string, out io.Writer) error {
	pool := core.NewPool(sampleN)
	pc, err := assemble.Build(assemble.Run{
		Protocol: core.NameEARS, N: sampleN, F: sampleF, D: 2, Delta: 2, Seed: sampleSeed,
		Gossip: core.Params{Pool: pool}, Preset: adversary.PresetStandard,
	})
	if err != nil {
		return err
	}
	w, err := sim.NewWorld(pc.Config, pc.Nodes, pc.Adversary)
	if err != nil {
		return err
	}
	rec := telemetry.NewRecorder(sampleN)
	chrome := telemetry.NewChromeTracer(0)
	w.SetTracer(sim.Tee(rec, chrome))
	if _, err := w.Run(pc.Evaluator); err != nil {
		return fmt.Errorf("telemetry sample run: %w", err)
	}

	snap := rec.Snapshot()
	arena := w.ArenaStats()
	ps := pool.Stats()
	gauges := []telemetry.Gauge{
		{Name: "sim_arena_blocks_allocated", Help: "Mailbox arena blocks ever created.", Value: float64(arena.BlocksAllocated)},
		{Name: "sim_arena_blocks_free", Help: "Mailbox arena blocks on the free list.", Value: float64(arena.BlocksFree)},
		{Name: "sim_arena_pending_peak", Help: "Peak undelivered messages in the mailbox.", Value: float64(arena.PeakPendingMessages)},
		{Name: "pool_gets", Help: "Pool objects handed out.", Value: float64(ps.PayloadGets), Labels: map[string]string{"kind": "payload"}},
		{Name: "pool_reuses", Help: "Pool objects served from the free list.", Value: float64(ps.PayloadReuses), Labels: map[string]string{"kind": "payload"}},
		{Name: "pool_releases", Help: "Pool objects returned by release.", Value: float64(ps.PayloadReleases), Labels: map[string]string{"kind": "payload"}},
		{Name: "pool_gets", Help: "Pool objects handed out.", Value: float64(ps.RumorGets), Labels: map[string]string{"kind": "rumors"}},
		{Name: "pool_reuses", Help: "Pool objects served from the free list.", Value: float64(ps.RumorReuses), Labels: map[string]string{"kind": "rumors"}},
		{Name: "pool_releases", Help: "Pool objects returned by release.", Value: float64(ps.RumorReleases), Labels: map[string]string{"kind": "rumors"}},
	}

	om, err := os.Create(filepath.Join(dir, "metrics.om"))
	if err != nil {
		return err
	}
	if err := telemetry.WriteOpenMetrics(om, snap, gauges...); err != nil {
		om.Close()
		return err
	}
	if err := om.Close(); err != nil {
		return err
	}

	tr, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return err
	}
	if err := chrome.Write(tr); err != nil {
		tr.Close()
		return err
	}
	if err := tr.Close(); err != nil {
		return err
	}

	nd, err := os.Create(filepath.Join(dir, "run.ndjson"))
	if err != nil {
		return err
	}
	if err := telemetry.WriteSnapshotNDJSON(nd, snap); err != nil {
		nd.Close()
		return err
	}
	if err := nd.Close(); err != nil {
		return err
	}

	fmt.Fprintf(out, "bench: telemetry written to %s (cpu.pprof, heap.pprof, metrics.om, trace.json, run.ndjson)\n", dir)
	return nil
}
