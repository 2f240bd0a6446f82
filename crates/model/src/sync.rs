//! The one way the workspace takes a `std::sync` lock.
//!
//! Every `Mutex` and `RwLock` is locked through [`lock()`], [`read()`] and
//! [`write()`]; `clippy.toml` disallows the `std` methods everywhere else.
//! Poisoning is ignored: a panic on any thread already fails the run or the
//! test that caught it, and `Drop for ThreadCtx` (`Baton::retire` in
//! `hyperion`) takes locks while a panicking thread unwinds, where a second
//! panic would abort the process instead of reporting the first.
#![allow(clippy::disallowed_methods)]

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Lock `mutex`, blocking until it is free.
pub fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Take `rwlock` for shared reading.
pub fn read<T: ?Sized>(rwlock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    rwlock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Take `rwlock` for exclusive writing.
pub fn write<T: ?Sized>(rwlock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    rwlock.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisoned_locks_still_lock() {
        let mutex = Mutex::new(1);
        let rwlock = RwLock::new(vec![1]);
        std::thread::scope(|s| {
            let poison = s.spawn(|| {
                let _m = lock(&mutex);
                let _w = write(&rwlock);
                panic!("holder dies with both locks");
            });
            assert!(poison.join().is_err());
        });
        assert!(mutex.is_poisoned() && rwlock.is_poisoned());

        *lock(&mutex) += 1;
        assert_eq!(*lock(&mutex), 2);
        write(&rwlock).push(2);
        let (a, b) = (read(&rwlock), read(&rwlock));
        assert_eq!(a.len() + b.len(), 4);
    }
}
