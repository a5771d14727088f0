package vclock

import (
	"fmt"

	"realtracer/internal/simclock"
	"realtracer/internal/snap"
)

// SyncHandle walks a handle's pending-event identity as an (armed, At, seq)
// record; see simclock.Clock.SyncTimer. Real-clock handles encode as
// unarmed, and decoding an armed record onto a non-simulated clock fails
// the codec: checkpoints only exist in simulation.
func SyncHandle(sc *snap.Codec, c Clock, hd *Handle, h simclock.EventHandler) {
	sim, ok := c.(Sim)
	if !ok {
		armed := false
		sc.Bool(&armed)
		if armed {
			sc.Fail(fmt.Errorf("vclock: restore of an armed timer onto non-simulated clock %T", c))
		}
		return
	}
	t := hd.sim
	sim.C.SyncTimer(sc, &t, h)
	if sc.Reading() {
		*hd = Handle{sim: t}
	}
}
