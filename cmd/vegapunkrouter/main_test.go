package main

import (
	"testing"
	"time"
)

// TestRunRejectsBadReplicaLists: every input below exits 2 before
// cluster.New runs. Unchecked, -replicas dropped an empty entry while
// -replica-traces kept it, so the trace URLs after it shifted onto the
// wrong replicas, extra URLs were ignored, and -trace-sample 0 quietly
// meant one in 8 while vegapunkd's -trace-sample 0 disables tracing.
func TestRunRejectsBadReplicaLists(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-replicas", ""},
		{"-replicas", "127.0.0.1:1,,127.0.0.1:2"},
		{"-replicas", "127.0.0.1:1,"},
		{"-replicas", "127.0.0.1:1,127.0.0.1:2", "-replica-traces", "http://127.0.0.1:3"},
		{"-replicas", "127.0.0.1:1", "-replica-traces", "http://127.0.0.1:3,http://127.0.0.1:4"},
		{"-replicas", "127.0.0.1:1,,127.0.0.1:2", "-replica-traces", "http://127.0.0.1:3,,http://127.0.0.1:4"},
		{"-replicas", "127.0.0.1:1", "-trace-sample", "0"},
	} {
		// An accepted input would start serving and never return.
		exit := make(chan int, 1)
		go func() { exit <- run(append([]string{"-listen", "127.0.0.1:0"}, args...)) }()
		select {
		case got := <-exit:
			if got != 2 {
				t.Errorf("vegapunkrouter %q: exit %d, want 2", args, got)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("vegapunkrouter %q: accepted, still serving after 5 s", args)
		}
	}
}

func TestReplicaListsKeepPositions(t *testing.T) {
	addrs, urls, err := replicaLists(" a:1 , b:2", "http://x, ")
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 2 || addrs[0] != "a:1" || addrs[1] != "b:2" {
		t.Errorf("addrs %q", addrs)
	}
	if len(urls) != 2 || urls[0] != "http://x" || urls[1] != "" {
		t.Errorf("trace URLs %q: want the second replica's entry empty", urls)
	}
}
