package media

// NewFrameSource builds a source positioned at media time zero.
func NewFrameSource(clip *Clip, enc Encoding) *FrameSource {
	fs := &FrameSource{}
	fs.Reset(clip, enc)
	return fs
}
