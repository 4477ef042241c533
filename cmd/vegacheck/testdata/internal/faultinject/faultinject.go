// Package faultinject drops errors from a method value and through a
// function variable.
package faultinject

import (
	"errors"
	"strings"
)

type plan struct{}

func (plan) inject() error { return errors.New("boom") }

var drain = func() error { return nil }

// Trip exercises every statement form.
func Trip() {
	var p plan
	p.inject()    // want
	defer drain() // want
	go p.inject() // want
	_ = p.inject()
	var sb strings.Builder
	sb.WriteByte('x')
	if err := p.inject(); err != nil {
		_ = err
	}
}
