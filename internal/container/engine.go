package container

import (
	"fmt"

	"ddosim/internal/netsim"
	"ddosim/internal/sim"
)

// EngineStats are the counters the Table I resource model reads, and
// the shell scripts run inside containers.
type EngineStats struct {
	ContainersBuilt int
	ImagesBuilt     int
	ProcsSpawned    int
	ShellExecs      int
}

// LinkConfig describes a container's attachment to the simulated
// network.
type LinkConfig struct {
	Rate       netsim.DataRate
	Delay      sim.Time
	QueueLimit int
}

// Engine is the container runtime: it builds images, creates
// containers, bridges them onto the star network, and resolves binary
// names to registered behaviours.
type Engine struct {
	sched *sim.Scheduler
	star  *netsim.Star

	images     map[string]*Image
	containers []*Container
	byName     map[string]*Container
	factories  map[string]BehaviorFactory

	stats EngineStats
}

// NewEngine creates a runtime attached to the star topology.
func NewEngine(sched *sim.Scheduler, star *netsim.Star) *Engine {
	return &Engine{
		sched:     sched,
		star:      star,
		images:    make(map[string]*Image),
		byName:    make(map[string]*Container),
		factories: make(map[string]BehaviorFactory),
	}
}

// Sched reports the scheduler.
func (e *Engine) Sched() *sim.Scheduler { return e.sched }

// Star reports the topology helper.
func (e *Engine) Star() *netsim.Star { return e.star }

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// RegisterImage adds an image to the local registry.
func (e *Engine) RegisterImage(img *Image) {
	e.images[img.Ref()] = img
	e.stats.ImagesBuilt++
}

// ImageByRef looks up a registered image.
func (e *Engine) ImageByRef(ref string) (*Image, bool) {
	img, ok := e.images[ref]
	return img, ok
}

// RegisterBinary associates a simulated binary name (the middle field
// of BinaryContent) with the behaviour it runs.
func (e *Engine) RegisterBinary(name string, f BehaviorFactory) {
	e.factories[name] = f
}

// Create builds a container from an image and attaches it to the
// network. The container starts stopped; call Start.
func (e *Engine) Create(imageRef, name string, link LinkConfig) (*Container, error) {
	img, ok := e.images[imageRef]
	if !ok {
		return nil, fmt.Errorf("container: no such image %q", imageRef)
	}
	if _, dup := e.byName[name]; dup {
		return nil, fmt.Errorf("container: name %q already in use", name)
	}
	if link.Rate <= 0 {
		return nil, fmt.Errorf("container: %s: non-positive link rate", name)
	}
	node := e.star.AttachHost(name, link.Rate, link.Delay, link.QueueLimit)
	c := &Container{
		id:     fmt.Sprintf("c%04d", len(e.containers)+1),
		name:   name,
		image:  img,
		arch:   img.Arch,
		fs:     NewFS(),
		node:   node,
		engine: e,
	}
	for _, path := range img.SortedPaths() {
		c.fs.Write(path, img.Files[path])
		if img.ExecPaths[path] {
			if err := c.fs.Chmod(path, true); err != nil {
				return nil, err
			}
		}
	}
	e.containers = append(e.containers, c)
	e.byName[name] = c
	e.stats.ContainersBuilt++
	return c, nil
}

// Containers returns all containers in creation order (a copy).
func (e *Engine) Containers() []*Container {
	out := make([]*Container, len(e.containers))
	copy(out, e.containers)
	return out
}

// ByName looks up a container.
func (e *Engine) ByName(name string) (*Container, bool) {
	c, ok := e.byName[name]
	return c, ok
}

// TotalMemBytes sums MemBytes over all running containers — the
// container-side input to the Table I memory model.
func (e *Engine) TotalMemBytes() int {
	n := 0
	for _, c := range e.containers {
		if c.running {
			n += c.MemBytes()
		}
	}
	return n
}
