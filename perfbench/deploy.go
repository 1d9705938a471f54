package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"orchestra/client"
)

// nodeCount is the deployment size; replication is the orchestra-node
// default (3), so every node holds a copy of every item.
const nodeCount = 3

// node is one orchestra-node child process.
type node struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser // held open: the node's REPL exits on EOF
	serve  string         // client wire-protocol address
	logf   *os.File
	exited chan struct{}
	err    error // exit status, valid once exited is closed
}

// deployment is a running 3-process cluster.
type deployment struct {
	nodes   []*node
	dataDir string // per-deployment scratch root, removed by stop
	flags   []string
}

// freePorts reserves n distinct loopback ports by binding :0 and
// releasing them; the window before the node binds is small and the
// launch fails loudly if another process took the port.
func freePorts(n int) ([]int, error) {
	ls := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	ports := make([]int, 0, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		ls = append(ls, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// startDeployment launches three orchestra-node processes under root
// (a fresh directory inside the benchmark's work dir) and waits until
// every served endpoint answers. durable adds -data, which runs the
// nodes on WAL-backed stores with the default -sync always.
func startDeployment(ctx context.Context, nodeBin, root string, durable bool) (*deployment, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	ports, err := freePorts(2 * nodeCount)
	if err != nil {
		return nil, err
	}
	var peers []string
	for i := 0; i < nodeCount; i++ {
		peers = append(peers, "127.0.0.1:"+strconv.Itoa(ports[i]))
	}
	d := &deployment{dataDir: root}
	for i := 0; i < nodeCount; i++ {
		serve := "127.0.0.1:" + strconv.Itoa(ports[nodeCount+i])
		args := []string{"-listen", peers[i], "-peers", strings.Join(peers, ","), "-serve", serve}
		if durable {
			args = append(args, "-data", filepath.Join(root, fmt.Sprintf("node%d", i+1)))
		}
		if i == 0 {
			d.flags = redactAddrs(args)
		}
		n, err := launch(nodeBin, args, filepath.Join(root, fmt.Sprintf("node%d.log", i+1)))
		if err != nil {
			d.stop()
			return nil, err
		}
		n.serve = serve
		d.nodes = append(d.nodes, n)
	}
	for _, n := range d.nodes {
		if err := waitServing(ctx, n); err != nil {
			d.stop()
			return nil, err
		}
	}
	return d, nil
}

// redactAddrs replaces address and path values with placeholders so the
// recorded flags describe the configuration, not one run's ports.
func redactAddrs(args []string) []string {
	out := append([]string(nil), args...)
	for i := 1; i < len(out); i += 2 {
		switch out[i-1] {
		case "-listen", "-serve":
			out[i] = "ADDR"
		case "-peers":
			out[i] = "ADDR,ADDR,ADDR"
		case "-data":
			out[i] = "DIR"
		}
	}
	return out
}

// childSysProcAttr asks the kernel to SIGKILL a node if the benchmark
// dies first (panic, signal, timeout), so no run leaks server processes.
// Pdeathsig fires when the forking thread exits; main locks the main
// goroutine to its thread and starts every node from it.
func childSysProcAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

func launch(bin string, args []string, logPath string) (*node, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = childSysProcAttr()
	stdin, err := cmd.StdinPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	n := &node{cmd: cmd, stdin: stdin, logf: logf, exited: make(chan struct{})}
	go func() {
		n.err = cmd.Wait()
		close(n.exited)
	}()
	return n, nil
}

// waitServing pings the node's served endpoint until it answers, the
// node exits, or ctx ends.
func waitServing(ctx context.Context, n *node) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		cl, err := client.Dial(n.serve, client.Options{PoolSize: 1, DialTimeout: time.Second, RefreshInterval: -1})
		if err == nil {
			pctx, cancel := context.WithTimeout(ctx, time.Second)
			_, err = cl.Ping(pctx)
			cancel()
			cl.Close()
			if err == nil {
				return nil
			}
		}
		select {
		case <-n.exited:
			return fmt.Errorf("node %s exited during start-up: %v; log ends:\n%s", n.serve, n.err, logTail(n.logf.Name()))
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node %s not serving after 30s: %v", n.serve, err)
		}
	}
}

// addrs returns the served endpoints in node order.
func (d *deployment) addrs() []string {
	out := make([]string, len(d.nodes))
	for i, n := range d.nodes {
		out[i] = n.serve
	}
	return out
}

// alive reports an error naming the first node that has exited.
func (d *deployment) alive() error {
	for _, n := range d.nodes {
		select {
		case <-n.exited:
			return fmt.Errorf("node %s exited: %v; log ends:\n%s", n.serve, n.err, logTail(n.logf.Name()))
		default:
		}
	}
	return nil
}

// logTail returns the last lines of a node log (stop removes the logs,
// so errors carry them).
func logTail(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(data) > 2048 {
		data = data[len(data)-2048:]
	}
	return string(data)
}

// rssPeakMB sums VmHWM (peak resident set) over the node processes.
func (d *deployment) rssPeakMB() (float64, error) {
	var kb int64
	for _, n := range d.nodes {
		v, err := vmHWMKB(n.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return float64(kb) / 1024, nil
}

func vmHWMKB(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuTimes is the machine's CPU time from /proc/stat, in clock ticks.
type cpuTimes struct{ total, steal uint64 }

func readCPU() (cpuTimes, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var c cpuTimes
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("/proc/stat: %w", err)
		}
		if i < 8 { // user … steal; guest time is already in user
			c.total += v
		}
		if i == 7 {
			c.steal = v
		}
	}
	return c, nil
}

// stealSince is the share of the machine's CPU time since c0 that the
// hypervisor gave to other guests.
func (c cpuTimes) stealSince(c0 cpuTimes) float64 {
	return div(float64(c.steal-c0.steal), float64(c.total-c0.total))
}

// stop kills every node, waits for each to exit, and removes the
// deployment's directory (data dirs and logs). Safe to call twice.
func (d *deployment) stop() {
	for _, n := range d.nodes {
		_ = n.cmd.Process.Signal(syscall.SIGKILL)
	}
	for _, n := range d.nodes {
		<-n.exited
		n.stdin.Close()
		n.logf.Close()
	}
	d.nodes = nil
	_ = os.RemoveAll(d.dataDir)
}
