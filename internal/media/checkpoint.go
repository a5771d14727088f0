package media

import (
	"fmt"

	"realtracer/internal/snap"
)

// Sync walks the source's playout position for a world checkpoint. The
// scene layout is not part of the snapshot: it is the clip's, a pure
// function of clip.Seed laid out on the clip's first playout, so the
// restoring owner first points a source at the clip and encoding with Reset
// — frame-for-frame identical to the source the checkpointed world held —
// and Sync overlays only the cursor fields.
func (fs *FrameSource) Sync(c *snap.Codec) {
	c.Tag("fsrc")
	c.Int(&fs.sceneIdx)
	c.Int(&fs.videoIdx)
	c.Dur(&fs.videoAt)
	c.Dur(&fs.audioAt)
	if c.Reading() && c.Err() == nil && (fs.sceneIdx < 0 || fs.sceneIdx >= len(fs.scenes)) {
		c.Fail(fmt.Errorf("media: snapshot scene cursor %d outside the clip's %d scenes", fs.sceneIdx, len(fs.scenes)))
		fs.sceneIdx = 0
	}
}
