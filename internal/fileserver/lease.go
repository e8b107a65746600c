package fileserver

import "time"

// Server-side lease tracking. A lease is the server's promise that it will
// tell the holding session before any other session observes or changes the
// file, which is what lets the client-side page cache (internal/pagecache)
// serve reads from DRAM and buffer writes without breaking coherence.
//
// Invariant: per ino there is at most one write-lease holder and never a
// writer coexisting with readers from other sessions ("at most one
// write-lease holder per file"). A conflicting request revokes every
// incompatible holder and waits for their acks — revoke-before-grant — so
// by the time the request touches the FS, every dirty page the old holder
// buffered has been flushed and dropped.
//
// The revoke wait happens before the dispatching worker takes any FS or
// vfs.LockTable lock, so a lease wait can never deadlock against the lock
// table; the only possible cycle is worker↔worker cross-revoke, which the
// wall-clock RevokeTimeout breaks by draining the unresponsive holder
// through the same closeRead path graceful shutdown uses (DESIGN.md §9).

// fileLease records who holds a lease on one ino.
type fileLease struct {
	writer  *session
	readers map[*session]struct{}
	next    *fileLease // the next spare record, while this one is spare
}

func (l *fileLease) empty() bool { return l.writer == nil && len(l.readers) == 0 }

// holds reports whether sess holds any lease on l.
func (l *fileLease) holds(sess *session) bool {
	if l.writer == sess {
		return true
	}
	_, ok := l.readers[sess]
	return ok
}

// conflictsWith appends to out every holder a (write?) request from sess
// must revoke: any other session's writer always conflicts; other
// sessions' readers conflict only with writes. Callers pass a stack
// buffer, which holds up to four conflicts without growing.
func (l *fileLease) conflictsWith(sess *session, write bool, out []*session) []*session {
	if l.writer != nil && l.writer != sess {
		out = append(out, l.writer)
	}
	if write {
		for r := range l.readers {
			if r != sess {
				out = append(out, r)
			}
		}
	}
	return out
}

// beginWrite brackets a mutation of ino that sess is about to apply to the
// FS: it marks the ino write-in-flight — acquireLease grants nothing on it
// until the matching endWrite — and then revokes every conflicting lease.
// Without the mark a session could be granted a read lease after the
// revoke and before the FS call, cache the old bytes, and keep them under
// a lease nobody will ever revoke. The mark is set first, so no lease can
// slip in behind the revoke either; it is a count because several
// sessions may be writing one file.
func (s *Server) beginWrite(sess *session, ino uint64) {
	s.leaseMu.Lock()
	s.writing[ino]++
	s.leaseMu.Unlock()
	s.revokeConflicting(sess, ino, true)
}

// endWrite clears beginWrite's mark once the FS call has returned.
func (s *Server) endWrite(ino uint64) {
	s.leaseMu.Lock()
	if s.writing[ino]--; s.writing[ino] <= 0 {
		delete(s.writing, ino)
	}
	s.leaseMu.Unlock()
}

// revokeConflicting revokes every lease on ino that conflicts with the
// given access from sess and blocks until each victim acks (or times out
// and is drained). It returns how many leases were revoked. Must be called
// by sess's worker BEFORE the FS operation — see the deadlock note above.
func (s *Server) revokeConflicting(sess *session, ino uint64, write bool) int {
	s.leaseMu.Lock()
	l := s.leases[ino]
	if l == nil {
		s.leaseMu.Unlock()
		return 0
	}
	var vbuf [4]*session
	victims := l.conflictsWith(sess, write, vbuf[:0])
	if len(victims) == 0 {
		s.leaseMu.Unlock()
		return 0
	}
	var wbuf [4]chan struct{}
	waits := wbuf[:0]
	for _, v := range victims {
		ch := make(chan struct{})
		ws := v.revokeWaiters[ino]
		first := len(ws) == 0
		if first {
			ws, v.spareWaiters = v.spareWaiters, nil
		}
		v.revokeWaiters[ino] = append(ws, ch)
		waits = append(waits, ch)
		if first {
			// Push outside leaseMu: a stuck transport must not wedge the
			// whole lease table.
			go v.pushRevoke(ino)
		}
	}
	s.leaseMu.Unlock()

	for i, ch := range waits {
		// Each holder gets the whole timeout from when its wait starts. The
		// timer is stopped once the ack arrives: an unstopped one would stay
		// live until it fires, RevokeTimeout after every revoke.
		timer := s.revokeTimer(sess)
		select {
		case <-ch:
			if !timer.Stop() {
				<-timer.C // fired unread: drain it, so the next Reset starts clean
			}
		case <-timer.C:
			// The holder did not flush in time. Reuse the graceful-drain
			// path: shut its read side so its session winds down like any
			// drained client, force-drop its leases so this (and every
			// other queued) request can proceed, and let teardown reap the
			// handles. Coherence holds because the holder's connection is
			// dead: any writeback it still attempts fails client-side and
			// surfaces as an error there, never as silent staleness here.
			closeRead(victims[i].conn)
			s.dropSessionLeases(victims[i])
			<-ch
		}
	}
	if sess != nil {
		sess.ctx.Counters.CacheRevokes += int64(len(victims))
	}
	return len(victims)
}

// revokeTimer returns a timer started for RevokeTimeout. A session reuses
// its own: its requests run one at a time under dmu, and every wait stops
// and drains the timer before the next starts it. A wait with no session
// (the map hook) gets a timer of its own.
func (s *Server) revokeTimer(sess *session) *time.Timer {
	if sess == nil {
		return time.NewTimer(s.cfg.RevokeTimeout)
	}
	if sess.revokeTimer == nil {
		sess.revokeTimer = time.NewTimer(s.cfg.RevokeTimeout)
	} else {
		sess.revokeTimer.Reset(s.cfg.RevokeTimeout)
	}
	return sess.revokeTimer
}

// pushRevoke sends the statusRevoke frame for ino to the session's client.
// Runs on its own goroutine; wmu keeps the push from interleaving with the
// worker's response frames.
func (sess *session) pushRevoke(ino uint64) {
	sess.wmu.Lock()
	defer sess.wmu.Unlock()
	// Push frames have no request id; the id field carries the ino.
	WriteFrame(sess.conn, ino, statusRevoke, nil)
}

// leaseAcked handles an opLeaseAck from sess: its lease on ino is gone and
// every request blocked on that revocation may proceed.
func (s *Server) leaseAcked(sess *session, ino uint64) {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	s.removeHolderLocked(sess, ino)
}

// dropSessionLeases releases every lease sess holds and wakes every waiter
// blocked on it — teardown and revoke timeouts both funnel here.
func (s *Server) dropSessionLeases(sess *session) {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	for ino, l := range s.leases {
		if l.holds(sess) {
			s.removeHolderLocked(sess, ino)
		}
	}
}

// removeHolderLocked drops sess's lease on ino and closes its pending
// revoke waiters. Caller holds leaseMu.
func (s *Server) removeHolderLocked(sess *session, ino uint64) {
	if l := s.leases[ino]; l != nil {
		if l.writer == sess {
			l.writer = nil
		}
		delete(l.readers, sess)
		if l.empty() {
			delete(s.leases, ino)
			l.next, s.spareLeases = s.spareLeases, l
		}
	}
	if ws := sess.revokeWaiters[ino]; ws != nil {
		for _, ch := range ws {
			close(ch)
		}
		delete(sess.revokeWaiters, ino)
		clear(ws)
		sess.spareWaiters = ws[:0]
	}
}

// acquireLease grants sess a lease on ino, revoking conflicting holders
// first. It retries a bounded number of times (another session can slip a
// new conflicting lease in between the revoke and the grant) and then
// refuses rather than livelock; a refused client simply runs uncached.
func (s *Server) acquireLease(sess *session, ino uint64, write bool) bool {
	// A locally mapped inode is never leased: DAX stores through the
	// mapping would go stale in any client cache. Refused clients serve
	// the file uncached, which is coherent by construction.
	if s.mapped != nil && s.mapped.MappedCount(ino) > 0 {
		return false
	}
	for tries := 0; tries < 8; tries++ {
		s.revokeConflicting(sess, ino, write)
		s.leaseMu.Lock()
		if s.writing[ino] > 0 {
			// A write is between its revoke and its FS call (beginWrite):
			// bytes cached now could be stale the moment it lands.
			s.leaseMu.Unlock()
			return false
		}
		l := s.leases[ino]
		if l == nil {
			if l = s.spareLeases; l != nil {
				s.spareLeases, l.next = l.next, nil
			} else {
				l = &fileLease{readers: make(map[*session]struct{})}
			}
			s.leases[ino] = l
		}
		var vbuf [4]*session
		if len(l.conflictsWith(sess, write, vbuf[:0])) == 0 {
			if write {
				l.writer = sess
				delete(l.readers, sess)
			} else if l.writer != sess {
				// A write lease subsumes read; don't downgrade.
				l.readers[sess] = struct{}{}
			}
			s.leaseMu.Unlock()
			return true
		}
		s.leaseMu.Unlock()
	}
	return false
}

// releaseLease voluntarily drops sess's lease on ino.
func (s *Server) releaseLease(sess *session, ino uint64) {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	s.removeHolderLocked(sess, ino)
}
