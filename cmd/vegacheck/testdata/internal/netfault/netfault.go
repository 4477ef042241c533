// Package netfault drops errors returned alongside other results and
// from an interface method.
package netfault

import "io"

func forward() (int, error) { return 0, io.ErrClosedPipe }

// Pump exercises every statement form.
func Pump() {
	var c io.Closer = io.NopCloser(nil)
	forward()       // want
	defer c.Close() // want
	go forward()    // want
	_, _ = forward()
	_ = c.Close()
}
