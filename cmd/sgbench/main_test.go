package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"lazy_layered_sg", "skiplist", "numask"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("list missing %q", want)
		}
	}
}

func TestTrialRuns(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-algo", "layered_map_sg",
		"-threads", "4",
		"-sockets", "2", "-cores", "2", "-smt", "1",
		"-keyspace", "256",
		"-duration", "30ms",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"algorithm:", "layered_map_sg", "throughput:", "effective updates:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-algo", "nope", "-duration", "10ms"}, &out); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if err := run([]string{"-threads", "0"}, &out); err == nil {
		t.Fatal("zero threads accepted")
	}
}

// TestWALSyncFlag drives the persistence trial's -wal-sync flag: group
// reports its durability toll, and the retired per-append and interval
// labels fail with an error naming the two policies Barrier can promise.
func TestWALSyncFlag(t *testing.T) {
	dir := t.TempDir()
	flags := func(pol string) []string {
		return []string{
			"-threads", "4", "-sockets", "2", "-cores", "2", "-smt", "1",
			"-keyspace", "2000",
			"-dump", dir + "/" + pol + "/d", "-wal", dir + "/" + pol + "/w", "-wal-sync", pol,
		}
	}
	var out bytes.Buffer
	if err := run(flags("group"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wal sync:           policy=group") {
		t.Fatalf("output missing the wal sync line:\n%s", out.String())
	}
	for _, bad := range []string{"every", "interval", "interval:2ms"} {
		err := run(flags(bad), &out)
		if err == nil {
			t.Fatalf("-wal-sync %s accepted", bad)
		}
		if !strings.Contains(err.Error(), "never or group") {
			t.Fatalf("-wal-sync %s: error %q does not name never and group", bad, err)
		}
	}
}

func TestViaStoreTrialRuns(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-algo", "lazy_layered_sg",
		"-threads", "4",
		"-sockets", "2", "-cores", "2", "-smt", "1",
		"-keyspace", "256",
		"-duration", "30ms",
		"-via-store",
		"-goroutines", "16",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"lazy_layered_sg+store", "goroutines:         16"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	// Oversubscribing raw handles must fail.
	if err := run([]string{
		"-algo", "lazy_layered_sg",
		"-threads", "4",
		"-sockets", "2", "-cores", "2", "-smt", "1",
		"-duration", "10ms",
		"-goroutines", "16",
	}, &out); err == nil {
		t.Fatal("oversubscribed confined handles accepted")
	}
}
