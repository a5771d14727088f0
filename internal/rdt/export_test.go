package rdt

import "realtracer/internal/packet"

// Encode serializes p to wire format in a buffer of its own.
func Encode(p *Packet) ([]byte, error) {
	w := packet.NewWriter(64)
	if err := EncodeTo(w, p); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}
