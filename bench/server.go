package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// serverBinary is where run.sh builds cmd/schedserve: next to the
// benchmark's own executable.
func serverBinary() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(filepath.Dir(exe), "schedserve")
	if _, err := os.Stat(bin); err != nil {
		return "", fmt.Errorf("schedserve binary (build with run.sh): %w", err)
	}
	return bin, nil
}

// server is one schedserve process with default flags on a loopback
// port.
type server struct {
	cmd  *exec.Cmd
	url  string
	log  bytes.Buffer // read only once the process has exited
	done chan struct{}
	// setup is the time from process start to the first 200 from
	// /healthz.
	setup time.Duration
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer starts schedserve and waits until it answers /healthz.
func startServer(bin string) (*server, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	s := &server{url: "http://" + addr, done: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", addr)
	s.cmd.Stdout = &s.log
	s.cmd.Stderr = &s.log
	// An interrupted benchmark must not leave a server behind.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = s.cmd.Wait() // the exit status is not a measurement; stop reports a hang
		close(s.done)
	}()
	for {
		resp, err := probe.Get(s.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(t0)
				return s, nil
			}
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("schedserve exited during start-up: %s", bytes.TrimSpace(s.log.Bytes()))
		case <-time.After(time.Millisecond):
		}
		if time.Since(t0) > 20*time.Second {
			_ = s.stop()
			return nil, fmt.Errorf("schedserve did not answer /healthz within 20s: %s", bytes.TrimSpace(s.log.Bytes()))
		}
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop sends SIGTERM, lets schedserve drain, and kills it if it has not
// exited within 10s. It returns once the process has ended.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-s.done:
		return nil
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return fmt.Errorf("schedserve ignored SIGTERM for 10s: %s", bytes.TrimSpace(s.log.Bytes()))
	}
}
