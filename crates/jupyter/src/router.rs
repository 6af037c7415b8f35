//! Message routing: the Global Scheduler's forwarding table (§3.1).
//!
//! Every Jupyter message carries the unique id of its target kernel; the
//! Global Scheduler inspects it and forwards a copy to the Local Scheduler
//! of *each* replica (steps 2–3 of Fig. 3), optionally converting all but
//! the designated executor's copy into a `yield_request`. Replies flow the
//! other way and are aggregated (step 9 of Fig. 5). This module implements
//! that routing table and the fan-out/fan-in bookkeeping.
//!
//! Fan-out copies share their payload: the executor's copy is the caller's
//! own request, and every `yield_request` copy shares one conversion, so
//! routing a request to R replicas deep-copies it at most once. Fan-in
//! hands the winning reply over without copying it.

use std::collections::HashMap;
use std::sync::Arc;

use crate::message::{merge_replies, JupyterMessage, MsgType};

/// Identifies a Local Scheduler endpoint (one per GPU server).
pub type LocalSchedulerId = u64;

/// Where one kernel's replicas live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelRoute {
    /// Local Scheduler of each replica, indexed by replica number.
    pub replicas: Vec<LocalSchedulerId>,
}

/// One outgoing copy of a routed request.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedCopy {
    /// Destination Local Scheduler.
    pub to: LocalSchedulerId,
    /// Replica index at that destination.
    pub replica: u32,
    /// The message to deliver (converted to `yield_request` for
    /// non-designated replicas when a designation is supplied), shared
    /// with the other copies of the same kind.
    pub message: Arc<JupyterMessage>,
}

/// Errors from routing operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// The message names no destination kernel.
    MissingDestination,
    /// No route registered for the kernel.
    UnknownKernel(String),
    /// The designated executor index is out of range.
    BadDesignation(u32),
    /// A reply arrived for a request the router is not tracking.
    UnknownRequest(String),
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::MissingDestination => write!(f, "message has no kernel_id"),
            RouteError::UnknownKernel(k) => write!(f, "no route for kernel `{k}`"),
            RouteError::BadDesignation(i) => write!(f, "designated replica {i} out of range"),
            RouteError::UnknownRequest(m) => write!(f, "no pending request `{m}`"),
        }
    }
}

impl std::error::Error for RouteError {}

/// The Global Scheduler's router.
#[derive(Debug, Default)]
pub struct Router {
    routes: HashMap<String, KernelRoute>,
    /// Pending fan-ins: request msg_id → (expected replies, received).
    pending: HashMap<String, (usize, Vec<JupyterMessage>)>,
}

impl Router {
    /// Creates an empty router.
    pub fn new() -> Self {
        Router::default()
    }

    /// Registers (or replaces) the route for `kernel_id`.
    pub fn register(&mut self, kernel_id: impl Into<String>, route: KernelRoute) {
        self.routes.insert(kernel_id.into(), route);
    }

    /// Removes a kernel's route (kernel shutdown). Returns whether it
    /// existed.
    pub fn deregister(&mut self, kernel_id: &str) -> bool {
        self.routes.remove(kernel_id).is_some()
    }

    /// Updates one replica's Local Scheduler after a migration (§3.2.3).
    ///
    /// # Errors
    ///
    /// Returns [`RouteError`] if the kernel or replica is unknown.
    pub fn rehome_replica(
        &mut self,
        kernel_id: &str,
        replica: u32,
        new_home: LocalSchedulerId,
    ) -> Result<(), RouteError> {
        let route = self
            .routes
            .get_mut(kernel_id)
            .ok_or_else(|| RouteError::UnknownKernel(kernel_id.to_string()))?;
        let slot = route
            .replicas
            .get_mut(replica as usize)
            .ok_or(RouteError::BadDesignation(replica))?;
        *slot = new_home;
        Ok(())
    }

    /// The route for `kernel_id`, if registered.
    pub fn route_of(&self, kernel_id: &str) -> Option<&KernelRoute> {
        self.routes.get(kernel_id)
    }

    /// Number of registered kernels.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether no kernels are registered.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Fans an `execute_request` out to every replica (Fig. 3 step 3).
    ///
    /// With `designated_executor = Some(i)`, replica `i` receives the
    /// original `execute_request` and every other replica a
    /// `yield_request` (the §3.2.2 bypass). With `None`, all replicas
    /// receive the original and run the Raft election themselves.
    ///
    /// The router starts tracking the request for reply aggregation.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError`] if the destination is missing/unknown or the
    /// designation is out of range.
    pub fn route_execute(
        &mut self,
        message: &Arc<JupyterMessage>,
        designated_executor: Option<u32>,
    ) -> Result<Vec<RoutedCopy>, RouteError> {
        let kernel_id = message
            .destination()
            .ok_or(RouteError::MissingDestination)?;
        let route = self
            .routes
            .get(kernel_id)
            .ok_or_else(|| RouteError::UnknownKernel(kernel_id.to_string()))?;
        if let Some(i) = designated_executor {
            if i as usize >= route.replicas.len() {
                return Err(RouteError::BadDesignation(i));
            }
        }
        let mut yielded: Option<Arc<JupyterMessage>> = None;
        let copies: Vec<RoutedCopy> = route
            .replicas
            .iter()
            .enumerate()
            .map(|(idx, &to)| {
                let is_executor = designated_executor.map_or(true, |d| d == idx as u32);
                let message = if is_executor {
                    message
                } else {
                    yielded.get_or_insert_with(|| Arc::new(message.to_yield_request()))
                };
                RoutedCopy {
                    to,
                    replica: idx as u32,
                    message: Arc::clone(message),
                }
            })
            .collect();
        self.pending.insert(
            message.header.msg_id.clone(),
            (copies.len(), Vec::with_capacity(copies.len())),
        );
        Ok(copies)
    }

    /// Accepts one replica's `execute_reply`. Returns the merged reply to
    /// forward to the client once every replica has answered (Fig. 5 step
    /// 9), `None` while replies are still outstanding.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::UnknownRequest`] for replies without a tracked
    /// parent.
    pub fn accept_reply(
        &mut self,
        reply: JupyterMessage,
    ) -> Result<Option<JupyterMessage>, RouteError> {
        let parent_id = match &reply.parent {
            Some(parent) if reply.header.msg_type == MsgType::ExecuteReply => {
                parent.msg_id.as_str()
            }
            _ => return Err(RouteError::UnknownRequest(reply.header.msg_id.clone())),
        };
        let (expected, received) = self
            .pending
            .get_mut(parent_id)
            .ok_or_else(|| RouteError::UnknownRequest(parent_id.to_string()))?;
        if received.len() + 1 < *expected {
            received.push(reply);
            return Ok(None);
        }
        let (_, mut replies) = self.pending.remove(parent_id).expect("just present");
        replies.push(reply);
        Ok(merge_replies(replies))
    }

    /// Requests currently awaiting replies.
    pub fn pending_requests(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::ReplyStatus;

    fn router() -> Router {
        let mut r = Router::new();
        r.register(
            "kernel-1",
            KernelRoute {
                replicas: vec![10, 20, 30],
            },
        );
        r
    }

    fn request() -> JupyterMessage {
        JupyterMessage::execute_request("m1", "sess", "train()", 0).with_destination("kernel-1")
    }

    #[test]
    fn fan_out_with_designation_converts_others() {
        let mut r = router();
        let req = Arc::new(request());
        let copies = r.route_execute(&req, Some(1)).unwrap();
        assert_eq!(copies.len(), 3);
        assert_eq!(copies[1].message.header.msg_type, MsgType::ExecuteRequest);
        assert_eq!(copies[0].message.header.msg_type, MsgType::YieldRequest);
        assert_eq!(copies[2].message.header.msg_type, MsgType::YieldRequest);
        assert_eq!(
            copies.iter().map(|c| c.to).collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
        // The executor's copy is the caller's request; both yields share
        // one conversion.
        assert!(Arc::ptr_eq(&copies[1].message, &req));
        assert!(Arc::ptr_eq(&copies[0].message, &copies[2].message));
        assert_eq!(r.pending_requests(), 1);
    }

    #[test]
    fn fan_out_without_designation_sends_originals() {
        let mut r = router();
        let req = Arc::new(request());
        let copies = r.route_execute(&req, None).unwrap();
        assert!(copies.iter().all(|c| Arc::ptr_eq(&c.message, &req)));
    }

    #[test]
    fn routing_errors() {
        let mut r = router();
        let no_dest = Arc::new(JupyterMessage::execute_request("m2", "sess", "x", 0));
        assert_eq!(
            r.route_execute(&no_dest, None).unwrap_err(),
            RouteError::MissingDestination
        );
        let wrong = Arc::new(request().with_destination("ghost"));
        assert!(matches!(
            r.route_execute(&wrong, None).unwrap_err(),
            RouteError::UnknownKernel(_)
        ));
        assert_eq!(
            r.route_execute(&Arc::new(request()), Some(9)).unwrap_err(),
            RouteError::BadDesignation(9)
        );
    }

    #[test]
    fn reply_aggregation_waits_for_all_replicas() {
        let mut r = router();
        let req = Arc::new(request());
        r.route_execute(&req, Some(0)).unwrap();
        let executor = req.execute_reply("r0", ReplyStatus::Ok, 1, true, 5);
        let s1 = req.execute_reply("r1", ReplyStatus::Ok, 1, false, 6);
        let s2 = req.execute_reply("r2", ReplyStatus::Ok, 1, false, 7);
        assert_eq!(r.accept_reply(s1).unwrap(), None);
        assert_eq!(r.accept_reply(executor).unwrap(), None);
        let merged = r.accept_reply(s2).unwrap().expect("all replies in");
        assert_eq!(merged.header.msg_id, "r0", "executor's reply wins");
        assert_eq!(r.pending_requests(), 0);
    }

    #[test]
    fn unknown_replies_rejected() {
        let mut r = router();
        let stray = request().execute_reply("r9", ReplyStatus::Ok, 1, true, 5);
        assert!(matches!(
            r.accept_reply(stray).unwrap_err(),
            RouteError::UnknownRequest(_)
        ));
        // Non-reply messages are rejected too.
        r.route_execute(&Arc::new(request()), None).unwrap();
        let not_reply = request();
        assert!(r.accept_reply(not_reply).is_err());
    }

    #[test]
    fn rehome_after_migration() {
        let mut r = router();
        r.rehome_replica("kernel-1", 2, 99).unwrap();
        assert_eq!(r.route_of("kernel-1").unwrap().replicas, vec![10, 20, 99]);
        assert!(matches!(
            r.rehome_replica("ghost", 0, 1).unwrap_err(),
            RouteError::UnknownKernel(_)
        ));
        assert_eq!(
            r.rehome_replica("kernel-1", 7, 1).unwrap_err(),
            RouteError::BadDesignation(7)
        );
    }

    #[test]
    fn deregister_removes_route() {
        let mut r = router();
        assert!(r.deregister("kernel-1"));
        assert!(!r.deregister("kernel-1"));
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
    }
}
