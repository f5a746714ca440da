//! The request/response protocol of the KV service.
//!
//! Keys are word addresses into the shared STM heap; values are the `u64`
//! words the TL2 runtime stores. Two request classes exist:
//!
//! * **single-key ops** ([`Request::Get`], [`Request::Put`],
//!   [`Request::Add`]) execute on the key's home shard and, because keys
//!   are partitioned across shards, never conflict with other shards;
//! * **multi-key read-modify-write transactions** ([`Request::Rmw`])
//!   execute on the *first* key's home shard but may touch words owned by
//!   other shards — the cross-shard conflicts whose wait/abort decisions
//!   route through `tcp_core::engine::ConflictArbiter`;
//! * **multi-key reads** ([`Request::GetRange`], [`Request::GetMany`])
//!   are read-only scans served from one consistent view — under MVCC
//!   snapshot mode, entirely from the version chains, with no locks, no
//!   validation, and no arbiter.
//!
//! `Add` and `Rmw` are commutative increments, so the final heap state is a
//! pure function of the *set* of admitted requests, independent of
//! interleaving — the property the same-seed determinism tests lean on.
//! Read-only requests never change the heap, so adding them to a mix
//! preserves it.
//!
//! Multi-key requests carry client-supplied shapes, so the router rejects
//! malformed ones ([`Request::is_well_formed`]) at admission instead of
//! trusting them deep in the execution path: an empty-key `Rmw` or
//! `GetMany`, or a zero-length `GetRange`, sheds with
//! [`ShedCause::Invalid`](crate::router::ShedCause::Invalid).

/// A key: a word address in the shared STM heap.
pub type Key = u64;

/// A client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Read one key.
    Get(Key),
    /// Blind-write one key.
    Put(Key, u64),
    /// Read-modify-write one key: add `delta`, return the new value.
    Add(Key, u64),
    /// Multi-key read-modify-write transaction: atomically add `delta` to
    /// every key and return the sum of the new values. Keys may span
    /// shards; the first key's shard executes it.
    Rmw { keys: Vec<Key>, delta: u64 },
    /// Read `len` consecutive keys starting at `start` from one
    /// consistent view and return their sum. Routed by `start`'s shard.
    GetRange { start: Key, len: u64 },
    /// Read an arbitrary key set from one consistent view and return its
    /// sum. Routed by the first key's shard.
    GetMany { keys: Vec<Key> },
}

impl Request {
    /// The key whose home shard executes this request. Total: malformed
    /// multi-key requests (rejected at admission) route to key 0.
    pub fn home_key(&self) -> Key {
        match self {
            Request::Get(k) | Request::Put(k, _) | Request::Add(k, _) => *k,
            Request::GetRange { start, .. } => *start,
            Request::Rmw { keys, .. } | Request::GetMany { keys } => {
                keys.first().copied().unwrap_or(0)
            }
        }
    }

    /// The shard that executes this request — the one canonical key→shard
    /// rule of the service (keys partition by `key % shards`).
    pub fn home_shard(&self, shards: usize) -> usize {
        (self.home_key() % shards as u64) as usize
    }

    /// Increments this request applies to the heap if admitted (for the
    /// conservation invariant: final heap sum = Σ admitted increments).
    pub fn increments(&self) -> u64 {
        match self {
            Request::Get(_)
            | Request::Put(_, _)
            | Request::GetRange { .. }
            | Request::GetMany { .. } => 0,
            Request::Add(_, delta) => *delta,
            Request::Rmw { keys, delta } => keys.len() as u64 * delta,
        }
    }

    /// Whether this request never writes the heap — the class the MVCC
    /// snapshot fast path serves without locks, validation, or arbiter.
    pub fn is_read_only(&self) -> bool {
        matches!(
            self,
            Request::Get(_) | Request::GetRange { .. } | Request::GetMany { .. }
        )
    }

    /// Shape validity: multi-key requests must name at least one key.
    /// The router rejects ill-formed requests at admission
    /// ([`ShedCause::Invalid`](crate::router::ShedCause::Invalid)) so
    /// nothing downstream has to re-check.
    pub fn is_well_formed(&self) -> bool {
        match self {
            Request::Get(_) | Request::Put(_, _) | Request::Add(_, _) => true,
            Request::Rmw { keys, .. } | Request::GetMany { keys } => !keys.is_empty(),
            Request::GetRange { len, .. } => *len >= 1,
        }
    }
}

/// The server's reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Response {
    /// The value read by a `Get`.
    Value(u64),
    /// A `Put` was applied.
    Written,
    /// The new value after an `Add`.
    Added(u64),
    /// The sum of the new values after an `Rmw`.
    RmwSum(u64),
    /// The sum over a `GetRange` scan.
    RangeSum(u64),
    /// The sum over a `GetMany` key set.
    ManySum(u64),
}

impl Response {
    /// The response as two plain words (variant, payload) — the form the
    /// reply cell's atomic slot stores.
    pub(crate) fn to_words(self) -> (u64, u64) {
        match self {
            Response::Value(v) => (0, v),
            Response::Written => (1, 0),
            Response::Added(v) => (2, v),
            Response::RmwSum(v) => (3, v),
            Response::RangeSum(v) => (4, v),
            Response::ManySum(v) => (5, v),
        }
    }

    /// Inverse of [`to_words`](Self::to_words).
    pub(crate) fn from_words(kind: u64, value: u64) -> Self {
        match kind {
            0 => Response::Value(value),
            1 => Response::Written,
            2 => Response::Added(value),
            3 => Response::RmwSum(value),
            4 => Response::RangeSum(value),
            5 => Response::ManySum(value),
            _ => unreachable!("reply slots hold only words from to_words, got kind {kind}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn home_key_and_shard_routing() {
        assert_eq!(Request::Get(7).home_key(), 7);
        assert_eq!(Request::Put(3, 9).home_key(), 3);
        assert_eq!(Request::Add(5, 1).home_key(), 5);
        let rmw = Request::Rmw {
            keys: vec![11, 2, 30],
            delta: 1,
        };
        assert_eq!(rmw.home_key(), 11, "the first key picks the shard");
        assert_eq!(rmw.home_shard(4), 3);
        assert_eq!(Request::Get(7).home_shard(4), 3);
        assert_eq!(Request::Get(8).home_shard(4), 0);
    }

    #[test]
    fn increments_account_admitted_writes() {
        assert_eq!(Request::Get(1).increments(), 0);
        assert_eq!(Request::Put(1, 99).increments(), 0);
        assert_eq!(Request::Add(1, 4).increments(), 4);
        let rmw = Request::Rmw {
            keys: vec![1, 2, 3],
            delta: 2,
        };
        assert_eq!(rmw.increments(), 6);
        assert_eq!(Request::GetRange { start: 0, len: 9 }.increments(), 0);
        assert_eq!(Request::GetMany { keys: vec![1, 2] }.increments(), 0);
    }

    #[test]
    fn empty_key_rmw_does_not_panic_and_is_ill_formed() {
        // The satellite fix: home_key() used to index keys[0].
        let rmw = Request::Rmw {
            keys: vec![],
            delta: 1,
        };
        assert_eq!(rmw.home_key(), 0);
        assert_eq!(rmw.home_shard(4), 0);
        assert!(!rmw.is_well_formed());
        assert!(!Request::GetMany { keys: vec![] }.is_well_formed());
        assert!(!Request::GetRange { start: 3, len: 0 }.is_well_formed());
        assert!(Request::Rmw {
            keys: vec![1],
            delta: 1
        }
        .is_well_formed());
        assert!(Request::GetRange { start: 3, len: 1 }.is_well_formed());
        assert!(Request::Get(0).is_well_formed());
    }

    #[test]
    fn read_only_classification_and_scan_routing() {
        assert!(Request::Get(1).is_read_only());
        assert!(Request::GetRange { start: 6, len: 4 }.is_read_only());
        assert!(Request::GetMany { keys: vec![9, 1] }.is_read_only());
        assert!(!Request::Put(1, 2).is_read_only());
        assert!(!Request::Add(1, 2).is_read_only());
        assert!(!Request::Rmw {
            keys: vec![1],
            delta: 1
        }
        .is_read_only());
        // Scans route by their first key, like Rmw.
        assert_eq!(Request::GetRange { start: 6, len: 4 }.home_shard(4), 2);
        assert_eq!(Request::GetMany { keys: vec![9, 1] }.home_shard(4), 1);
    }
}
