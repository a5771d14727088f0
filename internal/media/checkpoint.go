package media

import (
	"fmt"

	"realtracer/internal/snap"
)

// Sync walks the source's playout position for a world checkpoint. The
// scene layout and RNG are not part of the snapshot: both are pure functions
// of (clip.Seed, encoding), so the restoring owner first rebuilds them with
// Reset — frame-for-frame identical to the source the checkpointed world
// held, since no draws happen after construction — and Sync overlays only
// the cursor fields.
func (fs *FrameSource) Sync(c *snap.Codec) {
	c.Tag("fsrc")
	c.Int(&fs.sceneIdx)
	c.Int(&fs.videoIdx)
	c.Int(&fs.audioIdx)
	c.Dur(&fs.videoAt)
	c.Dur(&fs.audioAt)
	if c.Reading() && c.Err() == nil && (fs.sceneIdx < 0 || fs.sceneIdx >= len(fs.scenes)) {
		c.Fail(fmt.Errorf("media: snapshot scene cursor %d outside the clip's %d scenes", fs.sceneIdx, len(fs.scenes)))
		fs.sceneIdx = 0
	}
}
