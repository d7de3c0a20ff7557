package scenario

import (
	"encoding/json"
	"fmt"
	"os"
)

// Live replay seam: the exported surface the live networked cluster
// (internal/cluster) uses to run the *same* Spec that the simulator and
// the fuzzer execute. The cluster replaces the oblivious schedule/delay
// policies with real asynchrony — the Go scheduler, TCP, the OS — but
// keeps the spec's protocol, parameters, topology and crash plan, so a
// live trace can be judged against a live-adapted subset of the same
// oracle catalog. Completion and validity are not adapted but shared:
// CompletionViolation and ValidityViolation judge either runtime's
// Evidence. ProtocolByName, Spec.BuildGraph, MessageEnvelope and
// TimeEnvelope are the fuzzer's own functions.

// ReadSpecFile loads a Spec from any of the serialized forms the
// repository produces: a bare Spec JSON object, a corpus entry
// (repro.fuzz.corpus/v1 — the spec under "spec"), or a fuzz report
// (repro.fuzz.report/v1 — the minimized repro is preferred, falling back
// to the original spec). The loaded spec is validated before return.
func ReadSpecFile(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	var probe struct {
		Schema    string          `json:"schema"`
		Spec      json.RawMessage `json:"spec"`
		Minimized json.RawMessage `json:"minimized"`
	}
	raw := json.RawMessage(data)
	if err := json.Unmarshal(data, &probe); err == nil && len(probe.Spec) > 0 {
		raw = probe.Spec
		if probe.Schema == ReportSchema && len(probe.Minimized) > 0 {
			raw = probe.Minimized
		}
	}
	var s Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return Spec{}, fmt.Errorf("scenario: %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return s, nil
}
