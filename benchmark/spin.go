package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// The sandbox's host clocks a core by how busy it is. A workload that leaves
// a core partly idle — serve_open at a third of capacity, paper_cold's one
// caller, every set-up — then runs in one of two regimes from run to run:
// identical work costs 12 ms of CPU a query in one run and 17 ms in the
// next. The usual cure on hardware one controls is to pin the frequency;
// from inside a VM the harness keeps the cores busy instead: one child per
// core spins at the lowest scheduling priority (nice 19), where it yields to
// everything the benchmark runs within a scheduler tick and takes about 1%
// of a contended core. With the spinners the same ten runs of serve_open
// repeat within 3% in CPU per query instead of 40%.

// spinners are the keep-busy children. The parent holds the write end of
// each child's standard input and never writes: a child exits when that
// pipe closes, which happens when stop closes it and also when the parent
// dies in any way, so a killed harness leaves nothing spinning.
type spinners struct {
	cmds  []*exec.Cmd
	pipes []io.Closer
}

func startSpinners() (*spinners, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	s := &spinners{}
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(self, "-spin")
		w, err := cmd.StdinPipe()
		if err != nil {
			s.stop()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			s.stop()
			return nil, fmt.Errorf("starting a keep-busy child: %w", err)
		}
		s.cmds, s.pipes = append(s.cmds, cmd), append(s.pipes, w)
	}
	return s, nil
}

// stop ends every spinner and waits for it.
func (s *spinners) stop() {
	for _, p := range s.pipes {
		p.Close()
	}
	for _, c := range s.cmds {
		done := make(chan struct{})
		go func() { c.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			c.Process.Kill()
			<-done
		}
	}
	s.cmds, s.pipes = nil, nil
}

// spin is the child's whole life (-spin): drop every thread to nice 19, burn
// CPU until standard input closes, and give up after spinLimit whatever
// happens.
const spinLimit = 20 * time.Minute

func spin() {
	runtime.LockOSThread()
	// setpriority acts on one thread; threads started later inherit from
	// the thread that starts them, all of which are at 19 after this loop.
	if tasks, err := os.ReadDir("/proc/self/task"); err == nil {
		for _, t := range tasks {
			if tid, err := strconv.Atoi(t.Name()); err == nil {
				syscall.Setpriority(syscall.PRIO_PROCESS, tid, 19)
			}
		}
	}
	go func() {
		io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	for start := time.Now(); time.Since(start) < spinLimit; {
		for i := 0; i < 1<<24; i++ {
		}
	}
}
