// Package uvm is the lockorder fixture: a small declared hierarchy with
// an in-order path, an inversion, a missing annotation, a TryLock
// fallback that blocks on a peer, an owner-lock handoff, and a waived
// site the mutation test un-waives.
package uvm

import "sync"

type vmMap struct {
	//uvm:lock map
	mu sync.Mutex
}

type uobject struct {
	//uvm:lock object
	mu sync.Mutex
}

type bare struct {
	mu sync.Mutex // want `mutex field bare\.mu has no //uvm:lock level annotation`
}

// inOrder acquires map then object: down the hierarchy, fine.
func inOrder(m *vmMap, o *uobject) {
	m.mu.Lock()
	o.mu.Lock()
	o.mu.Unlock()
	m.mu.Unlock()
}

// inverted acquires the map lock while holding an object lock: up the
// declared hierarchy.
func inverted(m *vmMap, o *uobject) {
	o.mu.Lock()
	m.mu.Lock() // want `acquiring m\.mu\(map\) while holding o\.mu\(object\) goes up the declared hierarchy`
	m.mu.Unlock()
	o.mu.Unlock()
}

// tryFallback blocks on a same-level peer inside the failed-TryLock
// branch — the deadlock the TryLock was there to avoid.
func tryFallback(a, b *uobject) {
	if !a.mu.TryLock() {
		b.mu.Lock() // want `blocking Lock of b\.mu\(object\) inside the failed-TryLock branch of a\.mu\(object\)`
		b.mu.Unlock()
		return
	}
	a.mu.Unlock()
}

// waived is the same inversion with a recorded justification; the
// mutation test strips the waiver and expects the diagnostic back.
func waived(m *vmMap, o *uobject) {
	o.mu.Lock()
	//uvm:lockorder-ok fixture: boot-time only, no concurrent map users yet
	m.mu.Lock()
	m.mu.Unlock()
	o.mu.Unlock()
}

// ownerLock is the fault path's owner-lock handoff: a value naming the
// locked owner rather than its mutex, so the handle has no mutex field
// of its own and every Lock/Unlock stays on the owner's annotated field.
type ownerLock struct {
	o *uobject
}

func (l ownerLock) unlock() {
	if l.o != nil {
		l.o.mu.Unlock()
	}
}

// resolve takes the object lock and hands it to its caller.
func resolve(o *uobject) ownerLock {
	o.mu.Lock()
	return ownerLock{o: o}
}

// handoff releases the handed-over lock before taking the map lock.
func handoff(m *vmMap, o *uobject) {
	l := resolve(o)
	l.unlock()
	m.mu.Lock()
	m.mu.Unlock()
}

// rawHandle is the handoff shape the analyzer rejects: a bare mutex
// pointer carries no level.
type rawHandle struct {
	mu *sync.Mutex // want `mutex field rawHandle\.mu has no //uvm:lock level annotation`
}
