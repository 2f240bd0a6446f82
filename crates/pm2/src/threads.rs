//! Thread identity (the "threads subsystem").
//!
//! In the original system Java threads are mapped onto PM2's Marcel
//! user-level threads.  The reproduction maps them onto native OS threads,
//! spawned by the `hyperion` crate's runtime, which also hands out the ids;
//! this module only names them.

/// Identifier of a Hyperion (Java) thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u64);

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_thread_id_displays_as_thread_n() {
        assert_eq!(format!("{}", ThreadId(1)), "thread1");
    }
}
