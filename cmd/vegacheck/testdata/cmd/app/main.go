// Command app drops errors on expression, defer and go statements, and
// imports a module package the sweep reaches again on its own.
package main

import (
	"errors"
	"fmt"
	"os"

	"fixmod/internal/netfault"
)

func mayFail() error { return errors.New("boom") }

func cleanup() error { return nil }

func main() {
	mayFail()       // want
	defer cleanup() // want
	go mayFail()    // want
	fmt.Println("fmt is exempt")
	if err := mayFail(); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	_ = mayFail()
	netfault.Pump()
}
