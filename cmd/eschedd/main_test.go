package main

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestServeDrainsOnSIGTERMAtStart sends SIGTERM the moment the daemon
// creates its -addrfile, polling without sleeping so the signal lands
// within microseconds. The signal handler must already be in place, so
// the daemon drains and returns cleanly instead of dying with the test
// binary.
func TestServeDrainsOnSIGTERMAtStart(t *testing.T) {
	addrFile := filepath.Join(t.TempDir(), "addr")
	done := make(chan error, 1)
	go func() {
		done <- runServe([]string{"-addr", "127.0.0.1:0", "-addrfile", addrFile, "-disks", "8", "-blocks", "100"})
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(addrFile); err == nil {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("serve returned before publishing its address: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("no address published")
		}
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not drain after SIGTERM")
	}
}
