package main

import "testing"

// TestRunChecksMixAndScript: -mix and -script come from outside the
// program, so a kind the link does not apply there, a weight that is
// negative, NaN or infinite, or a bad duration exits 2 before the proxy
// starts. Unchecked, they were dropped silently or became a split write
// with no pause. Good lists run the proxy for -run-for and exit 0.
func TestRunChecksMixAndScript(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{}, 2}, // no -target
		{[]string{"-mix", "corrupt:3,tear:1"}, 0},
		{[]string{"-mix", "crash:0.5, slow:1", "-script", "pass:1ms,corrupt:1ms,slow:0s,blackhole:1ms"}, 0},
		{[]string{"-mix", "stall:1"}, 2},
		{[]string{"-mix", "skew:1"}, 2},
		{[]string{"-mix", "pass:1"}, 2},
		{[]string{"-mix", "blackhole:1"}, 2},
		{[]string{"-mix", "bogus:1"}, 2},
		{[]string{"-mix", "corrupt"}, 2},
		{[]string{"-mix", "corrupt:-1"}, 2},
		{[]string{"-mix", "corrupt:NaN"}, 2},
		{[]string{"-mix", "corrupt:+Inf"}, 2},
		{[]string{"-mix", "corrupt:x"}, 2},
		{[]string{"-script", "stall:1s"}, 2},
		{[]string{"-script", "skew:1s"}, 2},
		{[]string{"-script", "crash:1s"}, 2},
		{[]string{"-script", "tear:1s"}, 2},
		{[]string{"-script", "slow:soon"}, 2},
		{[]string{"-script", "slow:-1s"}, 2},
		{[]string{"-script", "slow:1s,"}, 2},
	} {
		args := tc.args
		if len(args) > 0 {
			args = append([]string{"-target", "127.0.0.1:1", "-run-for", "1ms"}, args...)
		}
		if got := run(args); got != tc.want {
			t.Errorf("netfaultproxy %q: exit %d, want %d", tc.args, got, tc.want)
		}
	}
}
