package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
)

// WriteSnapshotNDJSON writes a Snapshot as NDJSON: one "snapshot" line
// with the scalars, then one "point" line per curve sample — a shape that
// streams into plotting pipelines without loading the whole object.
func WriteSnapshotNDJSON(w io.Writer, snap Snapshot) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	head := struct {
		Kind     string       `json:"kind"`
		Snapshot snapshotJSON `json:"snapshot"`
	}{Kind: "snapshot", Snapshot: snapshotJSON{
		Processes:   snap.Processes,
		Steps:       snap.Steps,
		Sends:       snap.Sends,
		Delivers:    snap.Delivers,
		Crashes:     snap.Crashes,
		Reached:     snap.Reached,
		InFlight:    snap.InFlight,
		MaxInFlight: snap.MaxInFlight,
		LastEventAt: int64(snap.LastEventAt),
		SendBand:    snap.SendBand,
		Latency:     snap.Latency,
	}}
	if err := enc.Encode(head); err != nil {
		return err
	}
	writeCurve := func(name string, pts []Point) error {
		for _, p := range pts {
			line := struct {
				Kind  string  `json:"kind"`
				Curve string  `json:"curve"`
				T     int64   `json:"t"`
				V     float64 `json:"v"`
			}{Kind: "point", Curve: name, T: p.T, V: p.V}
			if err := enc.Encode(line); err != nil {
				return err
			}
		}
		return nil
	}
	if err := writeCurve("reach", snap.ReachCurve); err != nil {
		return err
	}
	if err := writeCurve("inflight", snap.InFlightCurve); err != nil {
		return err
	}
	return bw.Flush()
}

// snapshotJSON is the serialized form of Snapshot's scalar fields.
type snapshotJSON struct {
	Processes   int          `json:"processes"`
	Steps       int64        `json:"steps"`
	Sends       int64        `json:"sends"`
	Delivers    int64        `json:"delivers"`
	Crashes     int64        `json:"crashes"`
	Reached     int64        `json:"reached"`
	InFlight    int64        `json:"inflight"`
	MaxInFlight int64        `json:"max_inflight"`
	LastEventAt int64        `json:"last_event_at"`
	SendBand    HistSnapshot `json:"send_band"`
	Latency     HistSnapshot `json:"latency"`
}
