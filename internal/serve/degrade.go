package serve

import (
	"sync/atomic"
	"time"

	"vegapunk/internal/core"
)

// degradeHold is the ladder's hysteresis: the minimum time after a tier
// change before it steps back toward full.
const degradeHold = 100 * time.Millisecond

// ladder is the service's degradation ladder: under queue or deadline
// pressure it steps the active core.Tier toward maxTier (cheaper, less
// accurate decodes) and steps back toward core.TierFull once pressure
// clears and the hold time has passed (hysteresis against flapping).
//
// Only the batcher evaluates the ladder (the since/shedSeen fields are
// single-writer); workers read the active tier with an atomic load
// before every decode. Because evaluation rides on batch assembly, a
// service that goes fully idle keeps its last tier until the next
// request arrives — that first batch may decode one step cheaper than
// necessary, which is the safe direction.
type ladder struct {
	maxTier   core.Tier // 0 disables the ladder
	queueHigh int64     // queue depth that signals pressure
	hold      int64     // obs ticks a step-down must wait after any change

	tier atomic.Int32

	// Batcher-owned evaluation state.
	since    int64  // tick of the last tier change
	shedSeen uint64 // shed counter at the last evaluation
}

// active returns the tier workers decode at right now.
func (l *ladder) active() core.Tier { return core.Tier(l.tier.Load()) }

// evaluate advances the ladder one step at most, from the batcher.
// Pressure is a queue depth above queueHigh or any shed request since
// the last evaluation; relief is a queue depth at a quarter of
// queueHigh (floor 1 — the request whose batch triggered this
// evaluation is itself still counted in the depth) with no new sheds,
// sustained for the hold time.
func (l *ladder) evaluate(now int64, queueDepth int64, shed uint64) {
	if l.maxTier == 0 {
		return
	}
	pressured := queueDepth > l.queueHigh || shed > l.shedSeen
	l.shedSeen = shed
	cur := l.active()
	relief := l.queueHigh / 4
	if relief < 1 {
		relief = 1
	}
	switch {
	case pressured && cur < l.maxTier:
		l.tier.Store(int32(cur + 1))
		l.since = now
	case !pressured && cur > core.TierFull &&
		queueDepth <= relief && now-l.since >= l.hold:
		l.tier.Store(int32(cur - 1))
		l.since = now
	}
}
