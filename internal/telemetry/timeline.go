package telemetry

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Cell flag bits for one (process, time) cell.
const (
	cellStep uint8 = 1 << iota
	cellSend
	cellRecv
	cellCrash
)

// Timeline is a sim.Tracer that renders an execution as an ASCII
// space–time diagram: one row per process, one column per time step. It
// makes the model tangible — adversarial scheduling gaps, delayed
// deliveries, crash points and the quiescence tail are all visible at a
// glance — and is wired into the public API (GossipSpec.Timeline) and
// gossipsim's -timeline flag for small runs.
type Timeline struct {
	sim.NopTracer
	n       int
	maxCols int
	cells   [][]uint8 // [process][time]
	crashed []sim.Time
	horizon sim.Time
	clipped bool
}

var _ sim.Tracer = (*Timeline)(nil)

// NewTimeline traces n processes for up to maxCols time steps (later
// events are counted but not drawn). maxCols defaults to 160.
func NewTimeline(n, maxCols int) *Timeline {
	if maxCols <= 0 {
		maxCols = 160
	}
	t := &Timeline{
		n:       n,
		maxCols: maxCols,
		cells:   make([][]uint8, n),
		crashed: make([]sim.Time, n),
	}
	for i := range t.cells {
		t.cells[i] = make([]uint8, 0, 64)
		t.crashed[i] = -1
	}
	return t
}

// mark sets flag bits for (p, at).
func (t *Timeline) mark(p sim.ProcID, at sim.Time, bits uint8) {
	if int(p) < 0 || int(p) >= t.n || at < 0 {
		return
	}
	if at > t.horizon {
		t.horizon = at
	}
	if at >= sim.Time(t.maxCols) {
		t.clipped = true
		return
	}
	row := t.cells[p]
	for len(row) <= int(at) {
		row = append(row, 0)
	}
	row[at] |= bits
	t.cells[p] = row
}

// OnStep implements sim.Tracer.
func (t *Timeline) OnStep(p sim.ProcID, at sim.Time) { t.mark(p, at, cellStep) }

// OnSend implements sim.Tracer.
func (t *Timeline) OnSend(m sim.Message) { t.mark(m.From, m.SentAt, cellSend) }

// OnDeliver implements sim.Tracer.
func (t *Timeline) OnDeliver(m sim.Message, at sim.Time) { t.mark(m.To, at, cellRecv) }

// OnCrash implements sim.Tracer.
func (t *Timeline) OnCrash(p sim.ProcID, at sim.Time) {
	t.mark(p, at, cellCrash)
	if int(p) >= 0 && int(p) < t.n {
		t.crashed[p] = at
	}
}

// glyph maps cell bits to a character.
//
//	'X' crash   '#' step with send+receive   '*' step with send
//	'o' step with receive   '-' bare step   '·' not scheduled
func glyph(bits uint8) byte {
	switch {
	case bits&cellCrash != 0:
		return 'X'
	case bits&cellSend != 0 && bits&cellRecv != 0:
		return '#'
	case bits&cellSend != 0:
		return '*'
	case bits&cellRecv != 0:
		return 'o'
	case bits&cellStep != 0:
		return '-'
	default:
		return '.'
	}
}

// Render draws the diagram.
func (t *Timeline) Render() string {
	width := int(t.horizon) + 1
	if width > t.maxCols {
		width = t.maxCols
	}
	if width < 1 {
		width = 1
	}
	var b strings.Builder
	// Time axis: a tick every 10 columns.
	fmt.Fprintf(&b, "%6s ", "t=")
	for c := 0; c < width; c++ {
		if c%10 == 0 {
			b.WriteByte('|')
		} else {
			b.WriteByte(' ')
		}
	}
	b.WriteByte('\n')
	for p := 0; p < t.n; p++ {
		fmt.Fprintf(&b, "p%-4d  ", p)
		row := t.cells[p]
		for c := 0; c < width; c++ {
			at := sim.Time(c)
			if t.crashed[p] >= 0 && at > t.crashed[p] {
				b.WriteByte(' ') // dead
				continue
			}
			var bits uint8
			if c < len(row) {
				bits = row[c]
			}
			b.WriteByte(glyph(bits))
		}
		b.WriteByte('\n')
	}
	b.WriteString("legend: '*' send  'o' receive  '#' both  '-' idle step  '.' unscheduled  'X' crash\n")
	if t.clipped {
		fmt.Fprintf(&b, "(clipped at t=%d; run continued to t=%d)\n", t.maxCols, t.horizon)
	}
	return b.String()
}
