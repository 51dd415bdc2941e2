package core

// Recorder collects instrumentation from a protocol run. A run is
// single-threaded (see package engine), so the processes record one at a
// time on the run's goroutine and the recorder needs no lock; read its
// accessors from that goroutine (an observer callback) or after the run
// returns. All methods are nil-receiver-safe, so production code paths can
// call them unconditionally.
//
// Recording uses the engine's process indices, which are invisible to the
// protocol logic itself; the recorder exists so tests can check global
// invariants (Lemma 4.4's ID-to-cardinality consistency, Lemma 4.7's reset
// bound) without altering protocol behaviour.
type Recorder struct {
	resets         int
	acceptedEdges  int
	acceptedDones  int
	acceptedInputs int
	levelsBuilt    int
	beginRounds    []int
	idsAtLevel     map[int]map[int]int // level → pid → ID when the level finished
	diamHistory    []int

	obs RecorderObserver
}

// RecorderObserver receives instrumentation events live, as the run
// produces them, so external checkers (internal/check) can validate
// invariants round by round rather than only post-hoc. Observers are
// invoked on the run's goroutine, after the recorder has recorded the
// event, and may call back into the recorder's accessors.
type RecorderObserver interface {
	// ObserveReset fires when the leader initiates a reset phase; newDiam
	// is the doubled diameter estimate the reset announces.
	ObserveReset(newDiam int)
	// ObserveBeginRound fires when the recording process notes a level's
	// begin round (a real round number).
	ObserveBeginRound(round int)
	// ObserveLevelDone fires when process pid finishes a VHT level holding
	// temporary ID id.
	ObserveLevelDone(level, pid, id int)
}

// SetObserver attaches an observer for live events (nil detaches). Events
// recorded before the observer was attached are not replayed; attach
// before the run starts.
func (r *Recorder) SetObserver(o RecorderObserver) {
	if r == nil {
		return
	}
	r.obs = o
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{idsAtLevel: make(map[int]map[int]int)}
}

func (r *Recorder) noteReset(newDiam int) {
	if r == nil {
		return
	}
	r.resets++
	r.diamHistory = append(r.diamHistory, newDiam)
	if obs := r.obs; obs != nil {
		obs.ObserveReset(newDiam)
	}
}

func (r *Recorder) noteAccepted(label acceptKind) {
	if r == nil {
		return
	}
	switch label {
	case acceptEdge:
		r.acceptedEdges++
	case acceptDone:
		r.acceptedDones++
	case acceptInput:
		r.acceptedInputs++
	}
}

func (r *Recorder) noteBeginRound(round int) {
	if r == nil {
		return
	}
	r.beginRounds = append(r.beginRounds, round)
	if obs := r.obs; obs != nil {
		obs.ObserveBeginRound(round)
	}
}

func (r *Recorder) noteLevelDone(level, pid, id int) {
	if r == nil {
		return
	}
	if r.idsAtLevel[level] == nil {
		r.idsAtLevel[level] = make(map[int]int)
	}
	r.idsAtLevel[level][pid] = id
	if level+1 > r.levelsBuilt {
		r.levelsBuilt = level + 1
	}
	if obs := r.obs; obs != nil {
		obs.ObserveLevelDone(level, pid, id)
	}
}

type acceptKind int

const (
	acceptEdge acceptKind = iota + 1
	acceptDone
	acceptInput
)

// Resets returns the number of leader-initiated reset phases.
func (r *Recorder) Resets() int {
	if r == nil {
		return 0
	}
	return r.resets
}

// DiamHistory returns the sequence of post-reset diameter estimates.
func (r *Recorder) DiamHistory() []int {
	if r == nil {
		return nil
	}
	return append([]int(nil), r.diamHistory...)
}

// Accepted returns the numbers of accepted Edge, Done, and Input messages
// (counted once per acceptance, by the leader in leader mode and by
// process 0's recording in leaderless mode).
func (r *Recorder) Accepted() (edges, dones, inputs int) {
	if r == nil {
		return 0, 0, 0
	}
	return r.acceptedEdges, r.acceptedDones, r.acceptedInputs
}

// IDsAtLevel returns, for the given VHT level, the map from engine process
// index to the temporary ID the process held when the level finished.
func (r *Recorder) IDsAtLevel(level int) map[int]int {
	if r == nil {
		return nil
	}
	out := make(map[int]int, len(r.idsAtLevel[level]))
	for pid, id := range r.idsAtLevel[level] {
		out[pid] = id
	}
	return out
}

// BeginRounds returns the recorded begin-round numbers.
func (r *Recorder) BeginRounds() []int {
	if r == nil {
		return nil
	}
	return append([]int(nil), r.beginRounds...)
}
