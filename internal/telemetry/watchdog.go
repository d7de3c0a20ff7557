package telemetry

import (
	"sync"
	"time"
)

// Watchdog is per-worker heartbeat telemetry for internal/runner grids: it
// implements runner.Monitor, tracking which cell each worker holds and for
// how long, and (optionally) scanning for stuck workers in the background.
// Long campaigns — the nightly 15-minute fuzz run especially — use it to
// turn "the job is silent" into "worker 3 has been on cell 18241 for four
// minutes".
//
// The watchdog is observation-only: it never cancels or alters cells, it
// only reports. All methods are safe for concurrent use.
type Watchdog struct {
	mu      sync.Mutex
	workers map[int]*workerBeat
	done    int64
	errors  int64
	warned  map[int]bool // worker → already warned for current cell

	stop chan struct{}
	wg   sync.WaitGroup

	// now is the clock; replaceable in tests.
	now func() time.Time
}

type workerBeat struct {
	cell   int
	since  time.Time
	active bool
}

// WorkerStatus is one worker's heartbeat reading.
type WorkerStatus struct {
	Worker int
	Cell   int
	Active bool
	// Busy is how long the worker has held its current cell (active) or
	// been idle since its last one (inactive).
	Busy time.Duration
}

// NewWatchdog returns an idle watchdog. Wire it into runner.Options.Monitor
// and, for background stall scanning, call Start.
func NewWatchdog() *Watchdog {
	return &Watchdog{
		workers: make(map[int]*workerBeat),
		warned:  make(map[int]bool),
		now:     time.Now,
	}
}

// CellStart implements runner.Monitor.
func (w *Watchdog) CellStart(worker, cell int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	b := w.workers[worker]
	if b == nil {
		b = &workerBeat{}
		w.workers[worker] = b
	}
	b.cell = cell
	b.since = w.now()
	b.active = true
	delete(w.warned, worker)
}

// CellDone implements runner.Monitor.
func (w *Watchdog) CellDone(worker, cell int, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	b := w.workers[worker]
	if b == nil {
		b = &workerBeat{cell: cell}
		w.workers[worker] = b
	}
	b.since = w.now()
	b.active = false
	w.done++
	if err != nil {
		w.errors++
	}
	delete(w.warned, worker)
}

// Done reports completed cells and how many of them errored.
func (w *Watchdog) Done() (cells, errored int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.done, w.errors
}

// stalled collects workers that have held one cell longer than threshold
// and haven't been warned about that cell yet.
func (w *Watchdog) stalled(threshold time.Duration) []WorkerStatus {
	w.mu.Lock()
	defer w.mu.Unlock()
	now := w.now()
	var out []WorkerStatus
	for id, b := range w.workers {
		if !b.active || w.warned[id] {
			continue
		}
		if idle := now.Sub(b.since); idle >= threshold {
			w.warned[id] = true
			out = append(out, WorkerStatus{Worker: id, Cell: b.cell, Active: true, Busy: idle})
		}
	}
	return out
}

// Start launches a background scanner that checks every interval for
// workers stuck on one cell for at least threshold, calling onStall once
// per (worker, cell) stall. Call Stop to shut the scanner down.
func (w *Watchdog) Start(interval, threshold time.Duration, onStall func(WorkerStatus)) {
	if w.stop != nil {
		return // already running
	}
	w.stop = make(chan struct{})
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				for _, s := range w.stalled(threshold) {
					onStall(s)
				}
			}
		}
	}()
}

// Stop halts the background scanner started by Start and waits for it to
// exit. Safe to call when no scanner is running.
func (w *Watchdog) Stop() {
	if w.stop == nil {
		return
	}
	close(w.stop)
	w.wg.Wait()
	w.stop = nil
}
