package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// prepare checks that root is a checkout of the repository and creates the
// run's scratch directory under .bench_build.
func (b *bench) prepare() error {
	for _, p := range []string{"go.mod", "cmd/drvtable", "cmd/drvexplore", "cmd/drvserve"} {
		if _, err := os.Stat(filepath.Join(b.root, p)); err != nil {
			return fmt.Errorf("%s is not the repository root: %w", b.root, err)
		}
	}
	base := filepath.Join(b.root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return err
	}
	b.work = work
	return nil
}

// build compiles the binaries the workloads drive into .bench_build/bin. It
// is not part of any measurement; its time is printed as build_s.
func (b *bench) build() error {
	b.bin = filepath.Join(b.root, ".bench_build", "bin")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", b.bin+string(filepath.Separator), "./cmd/drvtable", "./cmd/drvexplore", "./cmd/drvserve")
	cmd.Dir = b.root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building the cmd binaries: %v\n%s", err, out.Bytes())
	}
	b.buildS = time.Since(start).Seconds()
	fmt.Fprintf(b.log, "build_s %.3f s (informational)\n", b.buildS)
	return nil
}

// child is one finished run of a CLI binary.
type child struct {
	wall   time.Duration
	exit   int
	stdout []byte
	stderr []byte
}

// runChild runs a built binary to completion and measures its wall time
// from start to exit.
func (b *bench) runChild(name string, args ...string) (*child, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(b.bin, name), args...)
	cmd.Dir = b.work
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	c := &child{wall: time.Since(start), stdout: stdout.Bytes(), stderr: stderr.Bytes()}
	var exitErr *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exitErr):
		c.exit = exitErr.ExitCode()
	default:
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return c, nil
}

// server is a running drvserve child.
type server struct {
	cmd  *exec.Cmd
	addr string
	errc chan error // the stderr reader's end
}

// startServer starts drvserve on a free loopback port and returns once it
// answers a handshake there. drvserve prints its address before it installs
// its SIGINT handler, so a server stopped right after that line could die
// without draining; a served handshake shows the handler is in place.
func (b *bench) startServer() (*server, error) {
	cmd := exec.Command(filepath.Join(b.bin, "drvserve"), "-addr", "127.0.0.1:0")
	cmd.Dir = b.work
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, errc: make(chan error, 1)}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "drvserve: listening on "); ok && s.addr == "" {
				s.addr = rest
				addrc <- rest
			}
		}
		close(addrc)
		s.errc <- sc.Err()
	}()
	err = errors.New("drvserve did not report its listening address")
	select {
	case _, ok := <-addrc:
		if ok {
			if err = handshake(s.addr); err == nil {
				return s, nil
			}
		}
	case <-time.After(10 * time.Second):
	}
	cmd.Process.Kill()
	<-s.errc
	cmd.Wait()
	return nil, err
}

// handshake opens a connection to addr, sends the protocol handshake and
// waits for the server's answer.
func handshake(addr string) error {
	c, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := c.Write(configLine()); err != nil {
		return err
	}
	line, err := bufio.NewReader(c).ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("drvserve handshake: %w", err)
	}
	if !bytes.HasPrefix(line, []byte(`{"config":`)) {
		return fmt.Errorf("drvserve answered the handshake with %s", line)
	}
	return nil
}

// stop sends SIGINT and waits for the graceful drain; drvserve must exit 0.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(os.Interrupt); err != nil {
		return err
	}
	// The stderr reader ends when the process exits; Wait must come after it.
	select {
	case <-s.errc:
	case <-time.After(40 * time.Second):
		s.cmd.Process.Kill()
		<-s.errc
		s.cmd.Wait()
		return errors.New("drvserve did not drain within 40s of SIGINT")
	}
	if err := s.cmd.Wait(); err != nil {
		return fmt.Errorf("drvserve: %w", err)
	}
	return nil
}
