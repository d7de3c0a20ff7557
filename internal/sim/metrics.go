package sim

// Metrics accumulates the complexity measures of a run. Message complexity
// counts point-to-point messages at send time (messages to processes that
// later crash, or that are in flight when the run ends, still count — the
// paper counts "the number of point-to-point messages sent by all the
// processes combined").
type Metrics struct {
	// Messages is the total number of point-to-point messages sent.
	Messages int64
	// Bytes is the total approximate payload bytes for payloads
	// implementing Sizer; 0 for protocols that do not report sizes.
	Bytes int64
	// SizedMessages counts the sent messages whose payload implemented
	// Sizer and therefore contributed to Bytes. Bytes is trustworthy
	// exactly when SizedMessages == Messages.
	SizedMessages int64
	// SentBy counts messages per sending process.
	SentBy []int64
	// DeliveredTo counts messages delivered per receiving process.
	DeliveredTo []int64
	// Steps counts local steps taken per process.
	Steps []int64
	// Crashes is the number of processes crashed during the run.
	Crashes int
	// LastSendAt is the time of the last message send, or -1 if no message
	// was ever sent (a genuine send at t=0 records 0).
	LastSendAt Time
	// OffEdgeDrops counts sends dropped because the configured topology
	// has no edge between sender and target (0 when no topology is set).
	OffEdgeDrops int64
	// OutOfRangeDrops counts sends dropped because the target id was
	// outside [0, n). Like off-edge drops these never reach the wire and
	// do not count as messages, but a nonzero tally flags a protocol (or
	// harness) addressing processes that do not exist.
	OutOfRangeDrops int64
}

func newMetrics(n int) *Metrics {
	return &Metrics{
		SentBy:      make([]int64, n),
		DeliveredTo: make([]int64, n),
		Steps:       make([]int64, n),
		LastSendAt:  -1,
	}
}

// TotalSteps returns the total number of local steps across processes.
func (m *Metrics) TotalSteps() int64 {
	var s int64
	for _, v := range m.Steps {
		s += v
	}
	return s
}

// Result summarizes a finished run.
type Result struct {
	// Completed reports that the run went quiet and the evaluator accepted.
	Completed bool
	// TimedOut reports that MaxSteps elapsed before the world went quiet.
	TimedOut bool
	// CompletedAt is the evaluator's completion time (see Outcome).
	CompletedAt Time
	// QuiesceAt is the time at which the world went quiet: every live node
	// quiescent and no message in flight to a live node.
	QuiesceAt Time
	// LastSendAt is the time of the last message send (-1 if none).
	LastSendAt Time
	// TimeComplexity is the paper's notion of gossip completion time: the
	// time by which every correct process has both gathered what it must
	// and stopped sending, i.e. max(CompletedAt, LastSendAt) for a
	// successful run. Timed-out runs record max(QuiesceAt, LastSendAt) —
	// the horizon actually burned — so telemetry and envelope-tightness
	// stats never see a spurious zero.
	TimeComplexity Time
	// Messages is the total number of point-to-point messages.
	Messages int64
	// Bytes is total payload bytes (see Metrics.Bytes).
	Bytes int64
	// BytesKnown reports that every sent message carried a Sizer payload,
	// i.e. Bytes is a real measurement rather than "unreported". It
	// distinguishes a genuinely zero-byte run from a protocol whose
	// payloads simply do not implement Sizer (vacuously true when no
	// messages were sent).
	BytesKnown bool
	// Crashes is the number of crashed processes.
	Crashes int
	// OffEdgeDrops counts sends dropped for lack of a topology edge.
	OffEdgeDrops int64
	// OutOfRangeDrops counts sends dropped for an out-of-range target id.
	OutOfRangeDrops int64
	// Detail carries the evaluator's violation description when !Completed.
	Detail string
}
