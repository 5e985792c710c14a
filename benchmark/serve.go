package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// findRoot walks up from the working directory to the repo's go.mod, so the
// harness works from the root (run.sh) and from benchmark/ (go run, go test).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module roadskyline\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod of module roadskyline above the working directory: run from a checkout of the repo")
		}
		dir = parent
	}
}

// buildServe compiles cmd/skylineserve from the checkout's source into
// outDir; the build cache makes every run after the first a no-op.
func buildServe(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "skylineserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/skylineserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building skylineserve: %w\n%s", err, out)
	}
	return bin, nil
}

// server is a running skylineserve child.
type server struct {
	cmd  *exec.Cmd
	base string // "http://127.0.0.1:port"
	tail *tailBuffer
	done chan struct{} // closed once the child has been waited for
	err  error         // Wait's result, valid after done
}

// tailBuffer keeps the last lines of the child's log for error reports.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.lines) == 20 {
		t.lines = t.lines[1:]
	}
	t.lines = append(t.lines, line)
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

// startServer launches the child on an ephemeral port and returns once
// /healthz answers 200, with the wall time from exec to that answer: the
// set-up time of the HTTP workloads. On any failure the child is stopped
// and waited for before returning.
func startServer(bin string, args ...string) (*server, time.Duration, error) {
	start := time.Now()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, tail: &tailBuffer{}, done: make(chan struct{})}
	addr := make(chan string, 1) // one send: the listen address, when logged
	go func() {
		// The log is drained to EOF before Wait, as os/exec requires.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			s.tail.add(line)
			if _, rest, ok := strings.Cut(line, "msg=serving addr="); ok {
				select {
				case addr <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
		s.err = cmd.Wait()
		close(s.done)
	}()
	fail := func(err error) (*server, time.Duration, error) {
		s.stop()
		return nil, 0, fmt.Errorf("%w; skylineserve log:\n%s", err, s.tail)
	}
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.done:
		return fail(fmt.Errorf("skylineserve exited before listening: %v", s.err))
	case <-time.After(60 * time.Second):
		return fail(errors.New("skylineserve did not report its address within 60 s"))
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		if time.Since(start) > 60*time.Second {
			return fail(errors.New("skylineserve /healthz did not answer 200 within 60 s"))
		}
		time.Sleep(time.Millisecond)
	}
}

// stop asks the child to shut down (SIGTERM), waits for it, and kills it if
// it has not exited after 15 s. It is safe to call more than once.
func (s *server) stop() error {
	select {
	case <-s.done:
		return nil
	default:
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
		return errors.New("skylineserve ignored SIGTERM and was killed")
	}
	return nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }
