package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// children tracks every process this run started, so a failing or timed
// out run still stops them all. The value is true while some goroutine is
// waiting for the process in waitProc.
var children struct {
	sync.Mutex
	live map[*exec.Cmd]bool
}

// startProc starts cmd, dying with this process if it is killed.
func startProc(cmd *exec.Cmd) error {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	children.Lock()
	defer children.Unlock()
	if err := cmd.Start(); err != nil {
		return err
	}
	if children.live == nil {
		children.live = map[*exec.Cmd]bool{}
	}
	children.live[cmd] = false
	return nil
}

// waitProc waits for cmd and returns its peak resident set in MB.
func waitProc(cmd *exec.Cmd) (rssMB float64, err error) {
	children.Lock()
	children.live[cmd] = true
	children.Unlock()
	err = cmd.Wait()
	children.Lock()
	delete(children.live, cmd)
	children.Unlock()
	if cmd.ProcessState == nil {
		return 0, err
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return rssMB, err
}

// killChildren kills every tracked process and returns once each has been
// reaped: by the goroutine already waiting for it, or here.
func killChildren() {
	children.Lock()
	var unwaited []*exec.Cmd
	for cmd, waited := range children.live {
		cmd.Process.Kill()
		if !waited {
			unwaited = append(unwaited, cmd)
		}
	}
	children.Unlock()
	for _, cmd := range unwaited {
		waitProc(cmd)
	}
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		children.Lock()
		n := len(children.live)
		children.Unlock()
		if n == 0 {
			return
		}
	}
}

// runSelf runs this binary as a child with args and returns its standard
// output and its peak RSS.
func runSelf(args ...string) (out []byte, rssMB float64, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := startProc(cmd); err != nil {
		return nil, 0, err
	}
	if rssMB, err = waitProc(cmd); err != nil {
		return nil, 0, fmt.Errorf("child %v: %w\n%s", args, err, stderr.Bytes())
	}
	return stdout.Bytes(), rssMB, nil
}
