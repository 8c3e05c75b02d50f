// Package model defines the spatial-crowdsourcing entities of the CMCTA
// problem (paper §II): distribution centers, workers, spatial tasks, delivery
// routes and whole-platform problem instances, together with the travel-time
// model of Eq. 1 (constant speed, Euclidean distance, zero handling time).
package model

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"imtao/internal/geo"
)

// TaskID identifies a task; it is the task's index in Instance.Tasks.
type TaskID int

// WorkerID identifies a worker; it is the worker's index in Instance.Workers.
type WorkerID int

// CenterID identifies a distribution center; it is the center's index in
// Instance.Centers.
type CenterID int

// NoCenter marks a task or worker not (yet) attached to any center.
const NoCenter CenterID = -1

// Task is a spatial task s = (c, l, e, r) per paper Definition 3.
type Task struct {
	ID     TaskID
	Center CenterID  // s.c — the center the task belongs to (fixed)
	Loc    geo.Point // s.l — delivery location
	Expiry float64   // s.e — deadline in hours from the planning instant
	Reward float64   // s.r — requester's reward
}

// Worker is a worker w = (c, l, maxT) per paper Definition 2.
type Worker struct {
	ID   WorkerID
	Home CenterID  // w.c — the center the worker primarily works for
	Loc  geo.Point // w.l — current location
	MaxT int       // w.maxT — capacity (max tasks per delivery run)
}

// Center is a distribution center c = (l, S, W) per paper Definition 1.
// Tasks and Workers hold the IDs attached to this center by the service-area
// partition.
type Center struct {
	ID      CenterID
	Loc     geo.Point
	Tasks   []TaskID
	Workers []WorkerID
}

// TravelMetric computes the travel time in hours between two locations.
// Instances default to straight-line travel at the uniform Speed; a custom
// metric (e.g. a road network from the roadnet package) can replace it.
type TravelMetric interface {
	TravelTime(a, b geo.Point) float64
}

// NodeMetric is a TravelMetric backed by a network of nodes (e.g. the
// roadnet distance oracle). Queries against such a metric decompose into
// snapping each point to a node plus a node-to-node lookup; the snap is a
// pure function of the point, so PrepareMetric memoizes it per entity and
// the assignment hot loops call TravelTimeNodes with the cached snaps
// instead of re-deriving them on every TravelTime call.
type NodeMetric interface {
	TravelMetric
	// SnapNode returns the metric's node nearest to p and the straight-line
	// snap distance from p to that node.
	SnapNode(p geo.Point) (node int32, leg float64)
	// TravelTimeNodes returns the travel time between two pre-snapped
	// points, each given as (node, snap-leg distance). It must equal
	// TravelTime of the original points exactly.
	TravelTimeNodes(aNode int32, aLeg float64, bNode int32, bLeg float64) float64
}

// NodeRef is one memoized snap: an entity location resolved to its metric
// node and snap-leg distance. The zero value is not valid; an absent snap
// (no node metric, or an entity added after PrepareMetric) has Node < 0 and
// routes the query through the generic TravelTime path.
type NodeRef struct {
	Node int32
	Leg  float64
}

// noRef marks an entity without a memoized snap.
var noRef = NodeRef{Node: -1}

// metricPrep is the per-instance snap memo built by PrepareMetric. It is
// immutable after construction, so concurrent shard games read it without
// synchronisation.
type metricPrep struct {
	nm      NodeMetric
	tasks   []NodeRef
	workers []NodeRef
	centers []NodeRef
	// centerLocs are the center locations the center snaps were taken at.
	centerLocs []geo.Point
}

// TaskHot packs the task fields read by the assignment hot loops — location,
// deadline and the memoized metric snap — into one contiguous 40-byte record.
// The cold fields (Reward, Center, ID) stay in Task; the inner trial-replay
// loop walks []TaskHot instead of striding through the wider Task structs and
// the separate snap memo, so each candidate costs one cache line.
type TaskHot struct {
	Loc    geo.Point
	Expiry float64
	Ref    NodeRef
}

// WorkerHot is the worker counterpart of TaskHot: location, snap and
// capacity, everything the serve loop reads per worker.
type WorkerHot struct {
	Loc  geo.Point
	Ref  NodeRef
	MaxT int32
}

// hotSlab is the structure-of-arrays view of an instance, built by EnsureHot
// and immutable afterwards. centers is the center count it was built at: a
// changed count rebuilds the slab and so drops the task geometry.
type hotSlab struct {
	metric  TravelMetric
	prep    *metricPrep
	tasks   []TaskHot
	workers []WorkerHot
	centers int
}

// Instance is a complete CMCTA problem instance: the platform's centers,
// tasks and workers plus the shared travel-speed parameter.
// All tasks and workers are indexed by their IDs: Tasks[i].ID == TaskID(i).
type Instance struct {
	Centers []Center
	Tasks   []Task
	Workers []Worker
	// Speed is the uniform worker travel speed in distance units per hour,
	// used by the default straight-line metric (and as a fallback scale).
	Speed float64
	// Bounds is the service area; Voronoi cells are clipped to it.
	Bounds geo.Rect
	// Metric, when non-nil, replaces the straight-line travel-time model —
	// e.g. a road network. Every algorithm in this repository calls
	// TravelTime, so swapping the metric re-targets the whole pipeline.
	Metric TravelMetric

	// prep is the entity→node snap memo for NodeMetric metrics, built by
	// PrepareMetric. Clone never passes it on.
	prep *metricPrep

	// hot is the SoA slab built by EnsureHot; nil until an engine entry
	// point asks for it. Clone never passes it on.
	hot *hotSlab

	// geom holds the task-geometry cache (TaskGeometry). Clone never passes
	// it on, and EnsureHot drops it whenever it rebuilds the slab.
	geom atomic.Value
}

// Errors returned by Validate.
var (
	ErrNoSpeed      = errors.New("model: speed must be positive")
	ErrBadID        = errors.New("model: entity ID does not match its index")
	ErrBadReference = errors.New("model: dangling center reference")
	ErrBadLocation  = errors.New("model: location is not finite")
)

// Validate checks the structural invariants the algorithms rely on:
// positive speed, finite locations, IDs equal to indices, and center
// membership lists that agree with the per-entity Center/Home fields.
func (in *Instance) Validate() error {
	if in.Speed <= 0 {
		return ErrNoSpeed
	}
	if err := in.CheckLocations(); err != nil {
		return err
	}
	for i, c := range in.Centers {
		if c.ID != CenterID(i) {
			return fmt.Errorf("%w: center %d has ID %d", ErrBadID, i, c.ID)
		}
	}
	for i, s := range in.Tasks {
		if s.ID != TaskID(i) {
			return fmt.Errorf("%w: task %d has ID %d", ErrBadID, i, s.ID)
		}
		if s.Center != NoCenter && (int(s.Center) < 0 || int(s.Center) >= len(in.Centers)) {
			return fmt.Errorf("%w: task %d -> center %d", ErrBadReference, i, s.Center)
		}
		if !(s.Expiry >= 0) || math.IsInf(s.Expiry, 1) {
			return fmt.Errorf("model: task %d has expiry %v, want finite and non-negative", i, s.Expiry)
		}
	}
	for i, w := range in.Workers {
		if w.ID != WorkerID(i) {
			return fmt.Errorf("%w: worker %d has ID %d", ErrBadID, i, w.ID)
		}
		if w.Home != NoCenter && (int(w.Home) < 0 || int(w.Home) >= len(in.Centers)) {
			return fmt.Errorf("%w: worker %d -> center %d", ErrBadReference, i, w.Home)
		}
		if w.MaxT < 0 {
			return fmt.Errorf("model: worker %d has negative MaxT %d", i, w.MaxT)
		}
	}
	for ci, c := range in.Centers {
		for _, t := range c.Tasks {
			if int(t) < 0 || int(t) >= len(in.Tasks) || in.Tasks[t].Center != CenterID(ci) {
				return fmt.Errorf("%w: center %d lists task %d", ErrBadReference, ci, t)
			}
		}
		for _, w := range c.Workers {
			if int(w) < 0 || int(w) >= len(in.Workers) || in.Workers[w].Home != CenterID(ci) {
				return fmt.Errorf("%w: center %d lists worker %d", ErrBadReference, ci, w)
			}
		}
	}
	return nil
}

// CheckLocations returns an error wrapping ErrBadLocation that names the
// first center, task or worker, in that order, whose location is not finite.
func (in *Instance) CheckLocations() error {
	for i, c := range in.Centers {
		if !c.Loc.Finite() {
			return fmt.Errorf("%w: center %d at %v", ErrBadLocation, i, c.Loc)
		}
	}
	for i, s := range in.Tasks {
		if !s.Loc.Finite() {
			return fmt.Errorf("%w: task %d at %v", ErrBadLocation, i, s.Loc)
		}
	}
	for i, w := range in.Workers {
		if !w.Loc.Finite() {
			return fmt.Errorf("%w: worker %d at %v", ErrBadLocation, i, w.Loc)
		}
	}
	return nil
}

// TravelTime returns the travel time in hours between two locations — the
// tt(·,·) of Eq. 1. The default is straight-line distance at the uniform
// speed; a non-nil Metric overrides it.
func (in *Instance) TravelTime(a, b geo.Point) float64 {
	if in.Metric != nil {
		return in.Metric.TravelTime(a, b)
	}
	return a.Dist(b) / in.Speed
}

// PrepareMetric memoizes the point→node snap of every task, worker and
// center location when Metric is a NodeMetric (the roadnet distance
// oracle), so the assignment hot loops stop re-deriving snaps on every
// TravelTime call. A no-op for straight-line instances and non-node
// metrics. Idempotent for an unchanged metric; call it again after swapping
// Metric or appending entities. A center moved in place is noticed and the
// memo rebuilt; a task or worker moved in place is not, so partition again
// after moving one (Partition's clone starts without a memo). Not safe
// concurrently with itself, but the memo is immutable once built, so
// prepared instances are safe for the parallel engine.
func (in *Instance) PrepareMetric() {
	nm, ok := in.Metric.(NodeMetric)
	if !ok {
		// Write only on change: shard games call this concurrently on one
		// shared, already prepared instance.
		if in.prep != nil {
			in.prep = nil
		}
		return
	}
	if p := in.prep; p != nil && p.nm == nm &&
		len(p.tasks) == len(in.Tasks) && len(p.workers) == len(in.Workers) && !p.centersMoved(in) {
		return
	}
	p := &metricPrep{
		nm:         nm,
		tasks:      make([]NodeRef, len(in.Tasks)),
		workers:    make([]NodeRef, len(in.Workers)),
		centers:    make([]NodeRef, len(in.Centers)),
		centerLocs: make([]geo.Point, len(in.Centers)),
	}
	for i := range in.Tasks {
		p.tasks[i].Node, p.tasks[i].Leg = nm.SnapNode(in.Tasks[i].Loc)
	}
	for i := range in.Workers {
		p.workers[i].Node, p.workers[i].Leg = nm.SnapNode(in.Workers[i].Loc)
	}
	for i := range in.Centers {
		p.centerLocs[i] = in.Centers[i].Loc
		p.centers[i].Node, p.centers[i].Leg = nm.SnapNode(in.Centers[i].Loc)
	}
	in.prep = p
}

// centersMoved reports whether in's centers differ in number or place from
// the ones the memo snapped.
func (p *metricPrep) centersMoved(in *Instance) bool {
	if len(p.centerLocs) != len(in.Centers) {
		return true
	}
	for i := range in.Centers {
		if in.Centers[i].Loc != p.centerLocs[i] {
			return true
		}
	}
	return false
}

// TaskRef returns the memoized snap of a task location, or an invalid ref
// when the instance has no prepared node metric.
func (in *Instance) TaskRef(id TaskID) NodeRef {
	if p := in.prep; p != nil && int(id) < len(p.tasks) {
		return p.tasks[id]
	}
	return noRef
}

// WorkerRef returns the memoized snap of a worker location.
func (in *Instance) WorkerRef(id WorkerID) NodeRef {
	if p := in.prep; p != nil && int(id) < len(p.workers) {
		return p.workers[id]
	}
	return noRef
}

// CenterRef returns the memoized snap of a center location.
func (in *Instance) CenterRef(id CenterID) NodeRef {
	if p := in.prep; p != nil && int(id) < len(p.centers) {
		return p.centers[id]
	}
	return noRef
}

// TravelTimeRef is TravelTime with memoized snaps: when both refs are valid
// and a node metric is prepared, the query skips snapping entirely and goes
// straight to the metric's node-to-node path; otherwise it falls back to
// TravelTime(a, b). Both paths return bit-identical values for the same
// points, so mixing them (e.g. unprepared test callers) cannot change
// results — only speed.
func (in *Instance) TravelTimeRef(a geo.Point, ar NodeRef, b geo.Point, br NodeRef) float64 {
	if p := in.prep; p != nil && ar.Node >= 0 && br.Node >= 0 {
		return p.nm.TravelTimeNodes(ar.Node, ar.Leg, br.Node, br.Leg)
	}
	return in.TravelTime(a, b)
}

// EnsureHot (re)builds the SoA slab: parallel []TaskHot / []WorkerHot
// arrays packing the hot-loop fields of every task and worker, including
// the PrepareMetric snaps when present. O(1) when the slab is already fresh
// (same metric, same snap memo, same entity counts), so engine entry points
// call it unconditionally. Call PrepareMetric first when using a node metric,
// or the slab memoizes the unprepared (fallback) refs. A rebuild also drops
// the task-geometry cache (TaskGeometry), which is read off the slab's task
// locations. Not safe concurrently with itself; the built slab is immutable,
// so prepared instances are safe for the parallel engine.
func (in *Instance) EnsureHot() {
	if h := in.hot; h != nil && h.metric == in.Metric && h.prep == in.prep &&
		len(h.tasks) == len(in.Tasks) && len(h.workers) == len(in.Workers) && h.centers == len(in.Centers) {
		return
	}
	h := &hotSlab{
		metric:  in.Metric,
		prep:    in.prep,
		tasks:   make([]TaskHot, len(in.Tasks)),
		workers: make([]WorkerHot, len(in.Workers)),
		centers: len(in.Centers),
	}
	for i := range in.Tasks {
		t := &in.Tasks[i]
		h.tasks[i] = TaskHot{Loc: t.Loc, Expiry: t.Expiry, Ref: in.TaskRef(t.ID)}
	}
	for i := range in.Workers {
		w := &in.Workers[i]
		h.workers[i] = WorkerHot{Loc: w.Loc, Ref: in.WorkerRef(w.ID), MaxT: int32(w.MaxT)}
	}
	in.hot = h
	in.geom = atomic.Value{}
}

// TaskGeometry returns the instance's task-geometry cache, making it with mk
// on first use. The cache holds what package assign derives from center
// locations, center task lists and task locations alone — per center, the
// nearest-task order and neighbour lists (DESIGN.md §11) — so every solve of
// one partitioned instance shares it; the model only stores it. Concurrent
// first callers may each call mk, but all of them get the value stored
// first. mk must always return the same concrete type.
func (in *Instance) TaskGeometry(mk func() any) any {
	if v := in.geom.Load(); v != nil {
		return v
	}
	v := mk()
	if in.geom.CompareAndSwap(nil, v) {
		return v
	}
	return in.geom.Load()
}

// HotTasks returns the task slab (nil before EnsureHot). Index by TaskID.
func (in *Instance) HotTasks() []TaskHot {
	if in.hot == nil {
		return nil
	}
	return in.hot.tasks
}

// HotWorkers returns the worker slab (nil before EnsureHot). Index by WorkerID.
func (in *Instance) HotWorkers() []WorkerHot {
	if in.hot == nil {
		return nil
	}
	return in.hot.workers
}

// Task returns the task with the given ID.
func (in *Instance) Task(id TaskID) *Task { return &in.Tasks[id] }

// Worker returns the worker with the given ID.
func (in *Instance) Worker(id WorkerID) *Worker { return &in.Workers[id] }

// Center returns the center with the given ID.
func (in *Instance) Center(id CenterID) *Center { return &in.Centers[id] }

// Clone returns a deep copy of the instance; the clone shares only the
// immutable Metric. It starts without the derived state — the snap memo,
// the slab and the task-geometry cache — which the engine entry points
// rebuild on first use: a clone is usually edited before it is solved
// (Partition rewrites every entity's center, and a caller may move
// entities), and each piece describes the entities it was built from.
func (in *Instance) Clone() *Instance {
	out := &Instance{
		Centers: make([]Center, len(in.Centers)),
		Tasks:   append([]Task(nil), in.Tasks...),
		Workers: append([]Worker(nil), in.Workers...),
		Speed:   in.Speed,
		Bounds:  in.Bounds,
		Metric:  in.Metric, // metrics are immutable; sharing is safe
	}
	for i, c := range in.Centers {
		out.Centers[i] = Center{
			ID:      c.ID,
			Loc:     c.Loc,
			Tasks:   append([]TaskID(nil), c.Tasks...),
			Workers: append([]WorkerID(nil), c.Workers...),
		}
	}
	return out
}

// Route is a worker's delivery run out of one pick-up center: the worker
// travels to Center, picks up all deliveries and visits Tasks in order
// (paper Definition 4). An empty Tasks slice means the worker is unused.
// Center may differ from the worker's home when the worker was dispatched by
// the inter-center workforce transfer.
type Route struct {
	Worker WorkerID
	Center CenterID
	Tasks  []TaskID
}

// Assignment is the spatial task assignment A(c) of one center (paper
// Definition 8): one route per worker serving the center, including borrowed
// workers.
type Assignment struct {
	Center CenterID
	Routes []Route
}

// AssignedCount returns the number of tasks assigned in A(c).
func (a *Assignment) AssignedCount() int {
	n := 0
	for _, r := range a.Routes {
		n += len(r.Tasks)
	}
	return n
}

// Transfer is one inter-center workforce transfer tuple (c_src, c_dst, w)
// per paper Definition 6.
type Transfer struct {
	Src    CenterID
	Dst    CenterID
	Worker WorkerID
}

// Solution is a platform-wide task assignment A = {A(c)} for all centers,
// together with the transfers that produced it.
type Solution struct {
	PerCenter []Assignment // indexed by CenterID
	Transfers []Transfer   // the union of all BWS(c) at the end of the game
}

// NewSolution returns an empty solution shell for an instance: one empty
// assignment per center.
func NewSolution(in *Instance) *Solution {
	s := &Solution{PerCenter: make([]Assignment, len(in.Centers))}
	for i := range s.PerCenter {
		s.PerCenter[i].Center = CenterID(i)
	}
	return s
}

// AssignedCount returns the total number of assigned tasks across centers —
// the paper's primary optimization objective.
func (s *Solution) AssignedCount() int {
	n := 0
	for i := range s.PerCenter {
		n += s.PerCenter[i].AssignedCount()
	}
	return n
}

// AssignedTasks returns the set of assigned task IDs.
func (s *Solution) AssignedTasks() map[TaskID]bool {
	out := make(map[TaskID]bool)
	for i := range s.PerCenter {
		for _, r := range s.PerCenter[i].Routes {
			for _, t := range r.Tasks {
				out[t] = true
			}
		}
	}
	return out
}

// CheckConsistency verifies solution sanity against an instance: every task
// assigned at most once, every worker routed at most once, route centers in
// range, and tasks delivered by the center that owns them (tasks never move
// between centers — only workers do; paper §I).
func (s *Solution) CheckConsistency(in *Instance) error {
	if len(s.PerCenter) != len(in.Centers) {
		return fmt.Errorf("model: solution covers %d centers, instance has %d", len(s.PerCenter), len(in.Centers))
	}
	seenTask := make(map[TaskID]CenterID)
	seenWorker := make(map[WorkerID]CenterID)
	for ci := range s.PerCenter {
		a := &s.PerCenter[ci]
		if a.Center != CenterID(ci) {
			return fmt.Errorf("model: assignment %d labelled center %d", ci, a.Center)
		}
		for _, r := range a.Routes {
			if int(r.Worker) < 0 || int(r.Worker) >= len(in.Workers) {
				return fmt.Errorf("model: route references worker %d", r.Worker)
			}
			if prev, dup := seenWorker[r.Worker]; dup {
				return fmt.Errorf("model: worker %d routed by both center %d and %d", r.Worker, prev, ci)
			}
			seenWorker[r.Worker] = CenterID(ci)
			if r.Center != CenterID(ci) {
				return fmt.Errorf("model: route in assignment %d picks up at center %d", ci, r.Center)
			}
			for _, t := range r.Tasks {
				if int(t) < 0 || int(t) >= len(in.Tasks) {
					return fmt.Errorf("model: route references task %d", t)
				}
				if prev, dup := seenTask[t]; dup {
					return fmt.Errorf("model: task %d assigned by both center %d and %d", t, prev, ci)
				}
				seenTask[t] = CenterID(ci)
				if in.Tasks[t].Center != CenterID(ci) {
					return fmt.Errorf("model: task %d belongs to center %d but delivered by %d",
						t, in.Tasks[t].Center, ci)
				}
			}
		}
	}
	return nil
}
