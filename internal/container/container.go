package container

import (
	"fmt"
	"slices"

	"ddosim/internal/netsim"
	"ddosim/internal/procvm"
)

// Container is a running (or stopped) instance of an Image: a private
// filesystem, a process table, and a network attachment. Its node is
// the NS-3 "ghost node" of the paper — the container believes eth0
// connects it straight to the simulated network.
type Container struct {
	id     string
	name   string
	image  *Image
	arch   string
	fs     *FS
	node   *netsim.Node
	engine *Engine

	procs           []*Process // live processes in pid order
	nextPID         int
	running         bool
	logs            []string
	removedCommands map[string]bool
}

// RemoveCommand strips a shell command from the container — the
// §IV-C hardening insight ("firmware vendors may choose not to ...
// install the curl command or similar commands").
func (c *Container) RemoveCommand(name string) {
	if c.removedCommands == nil {
		c.removedCommands = make(map[string]bool)
	}
	c.removedCommands[name] = true
}

// HasCommand reports whether the shell command is available.
func (c *Container) HasCommand(name string) bool { return !c.removedCommands[name] }

// ID reports the container id.
func (c *Container) ID() string { return c.id }

// Name reports the container name.
func (c *Container) Name() string { return c.name }

// Image reports the image the container was created from.
func (c *Container) Image() *Image { return c.image }

// Arch reports the container's instruction-set architecture.
func (c *Container) Arch() string { return c.arch }

// FS exposes the container filesystem.
func (c *Container) FS() *FS { return c.fs }

// Node reports the simulated-network attachment.
func (c *Container) Node() *netsim.Node { return c.node }

// Running reports whether the container has been started and not
// stopped.
func (c *Container) Running() bool { return c.running }

// Logs returns the accumulated log lines.
func (c *Container) Logs() []string {
	out := make([]string, len(c.logs))
	copy(out, c.logs)
	return out
}

func (c *Container) logf(format string, args ...any) {
	c.logs = append(c.logs, fmt.Sprintf(format, args...))
}

// Start boots the container: link up, entrypoint exec'd.
func (c *Container) Start() error {
	if c.running {
		return fmt.Errorf("container %s: already running", c.name)
	}
	c.running = true
	c.node.DefaultDevice().SetUp(true)
	if len(c.image.Entrypoint) > 0 {
		if _, err := c.ExecFile(c.image.Entrypoint[0], c.image.Entrypoint[1:]); err != nil {
			return fmt.Errorf("container %s: entrypoint: %w", c.name, err)
		}
	}
	return nil
}

// Stop kills every process and brings the link down.
func (c *Container) Stop() {
	if !c.running {
		return
	}
	for _, p := range c.Procs() {
		c.reap(p)
	}
	c.node.DefaultDevice().SetUp(false)
	c.running = false
}

// Spawn adds a process running the given behaviour.
func (c *Container) Spawn(b Behavior) *Process {
	c.nextPID++
	p := &Process{
		pid:       c.nextPID,
		title:     b.Name(),
		behavior:  b,
		container: c,
		alive:     true,
	}
	c.procs = append(c.procs, p)
	c.engine.stats.ProcsSpawned++
	b.Start(p)
	return p
}

// ExecFile executes a binary from the container filesystem, enforcing
// the execute bit and the architecture match.
func (c *Container) ExecFile(path string, args []string) (*Process, error) {
	data, ok := c.fs.Read(path)
	if !ok {
		return nil, fmt.Errorf("exec %s: no such file", path)
	}
	if !c.fs.IsExec(path) {
		return nil, fmt.Errorf("exec %s: permission denied", path)
	}
	name, arch, ok := ParseBinary(data)
	if !ok {
		return nil, fmt.Errorf("exec %s: exec format error", path)
	}
	if arch != c.arch {
		return nil, fmt.Errorf("exec %s: exec format error (binary is %s, container is %s)", path, arch, c.arch)
	}
	factory, ok := c.engine.factories[name]
	if !ok {
		return nil, fmt.Errorf("exec %s: unknown binary %q", path, name)
	}
	argv := append([]string{path}, args...)
	return c.Spawn(factory(argv)), nil
}

// Procs returns the live processes ordered by pid (a copy, so the
// caller may kill processes while ranging over it).
func (c *Container) Procs() []*Process { return slices.Clone(c.procs) }

// FindByTCPPort returns the live process bound to the given TCP port,
// or nil. Processes are probed in pid order so the answer is
// deterministic even if two processes raced for the same port.
func (c *Container) FindByTCPPort(port uint16) *Process {
	for _, p := range c.procs {
		if p.HasTCPPort(port) {
			return p
		}
	}
	return nil
}

// Kill terminates a process by pid.
func (c *Container) Kill(pid int) bool {
	i := slices.IndexFunc(c.procs, func(p *Process) bool { return p.pid == pid })
	if i < 0 {
		return false
	}
	c.reap(c.procs[i])
	return true
}

func (c *Container) reap(p *Process) {
	if !p.alive {
		return
	}
	p.alive = false
	p.behavior.Stop(p)
	p.releaseResources()
	c.procs = slices.DeleteFunc(c.procs, func(q *Process) bool { return q == p })
}

// MemBytes estimates the container's resident memory: a per-container
// runtime base, the image (binaries loaded on Devs are what Table I's
// pre-attack memory grows with), plus per-process overhead.
func (c *Container) MemBytes() int {
	const (
		containerBase = 2 << 20 // runtime, mounts, cgroup bookkeeping
		perProcess    = 512 << 10
	)
	imageFileBytes := 0
	for _, data := range c.image.Files {
		imageFileBytes += len(data)
	}
	downloaded := c.fs.TotalBytes() - imageFileBytes
	if downloaded < 0 {
		downloaded = 0
	}
	return containerBase + c.image.SizeBytes() + downloaded + len(c.procs)*perProcess
}

// procOS adapts a container to procvm.OS for one daemon process: a
// hijacked daemon's execlp lands here.
type procOS struct {
	c    *Container
	self *Process
}

// ProcOS returns the procvm syscall surface for a daemon process.
func (c *Container) ProcOS(self *Process) procvm.OS {
	return &procOS{c: c, self: self}
}

// ExecShell implements procvm.OS: the daemon's image is replaced by
// `sh -c cmd`, i.e. the daemon dies and the shell runs in its place.
func (o *procOS) ExecShell(cmd string) {
	o.c.logf("[%s] execlp sh -c %q", o.self.title, cmd)
	o.c.reap(o.self)
	o.c.RunShell(cmd, nil)
}

// Exit implements procvm.OS.
func (o *procOS) Exit(code int) {
	o.c.logf("[%s] exit(%d)", o.self.title, code)
	o.self.exitStatus = code
	o.c.reap(o.self)
}
