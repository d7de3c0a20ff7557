package scenario

import (
	"bytes"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestTelemetryObservationOnly pins the tentpole contract of the telemetry
// layer: attaching any combination of observers through ExecuteTraced leaves
// the event stream byte-identical. A sampler that consumed randomness,
// reordered events or mutated messages would shift the digest and fail here.
func TestTelemetryObservationOnly(t *testing.T) {
	spec := goldenSpec("ears", 24, 3)

	bare, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}

	rec := telemetry.NewRecorder(spec.N)
	chrome := telemetry.NewChromeTracer(0)
	tl := telemetry.NewTimeline(spec.N, 120)
	traced, err := ExecuteTraced(spec, sim.Tee(rec, chrome, tl))
	if err != nil {
		t.Fatal(err)
	}

	if traced.Digest != bare.Digest || traced.Events != bare.Events {
		t.Errorf("telemetry perturbed the run: digest %#016x (%d events) with observers, %#016x (%d) without",
			traced.Digest, traced.Events, bare.Digest, bare.Events)
	}

	// The recorder must have seen the same stream the digest fingerprints:
	// steps + sends + delivers + crashes is exactly the event count.
	s := rec.Snapshot()
	if got := s.Steps + s.Sends + s.Delivers + s.Crashes; got != bare.Events {
		t.Errorf("recorder saw %d events, digest counted %d", got, bare.Events)
	}
	if s.Reached == 0 || s.MaxInFlight == 0 {
		t.Errorf("recorder samplers empty: %+v", s)
	}
	if chrome.Dropped() != 0 {
		t.Errorf("chrome tracer dropped %d events on a small run", chrome.Dropped())
	}
	var buf bytes.Buffer
	if err := chrome.Write(&buf); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkExecuteTelemetry reports the telemetry tax: the same pinned
// scenario with no extra observer versus with a Recorder riding along. CI
// runs this warn-only; the hard floor (telemetry off = zero allocations per
// event) is pinned by the AllocsPerRun tests in internal/sim, internal/core
// and internal/telemetry.
func BenchmarkExecuteTelemetry(b *testing.B) {
	spec := goldenSpec("ears", 24, 3)
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Execute(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recorder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec := telemetry.NewRecorder(spec.N)
			if _, err := ExecuteTraced(spec, rec); err != nil {
				b.Fatal(err)
			}
		}
	})
}
