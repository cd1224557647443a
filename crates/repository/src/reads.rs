//! Read recording: which rows a render read.
//!
//! A page cached above the origin stays correct until one of its inputs
//! changes. Its inputs are the rows its script read, named by the same
//! dependency labels the [`UpdateBus`](crate::UpdateBus) publishes:
//! `table/key` for a point lookup, `table/*` for a scan or a key listing
//! (a row update publishes both). [`record`] opens a recording on the
//! calling thread, and every read any [`Repository`](crate::Repository)
//! serves on that thread while it is open notes its label — including
//! reads made by closures an application handed to the cache layer, so no
//! script has to declare what it read.
//!
//! A script that uses data the repository did not serve to it in this
//! recording (an object cached by an earlier request, say) calls
//! [`note_unseen`]: the recording then reports its read set as unknown.

use std::cell::RefCell;

/// An open recording: the labels read so far, or `None` once something
/// was read that cannot be named.
type Recording = Option<Vec<String>>;

thread_local! {
    static RECORDING: RefCell<Option<Recording>> = const { RefCell::new(None) };
}

/// Restores the recording that was open before [`record`] on every exit,
/// unwinding included, so a panicking render cannot leave one open.
struct Restore(Option<Recording>);

impl Drop for Restore {
    fn drop(&mut self) {
        let outer = self.0.take();
        RECORDING.with(|r| *r.borrow_mut() = outer);
    }
}

/// Run `f` with a recording open on this thread. Returns `f`'s value and
/// the labels of every repository read it made (in read order, repeats
/// kept), or `None` when it also used data the repository did not serve
/// it ([`note_unseen`]).
pub fn record<R>(f: impl FnOnce() -> R) -> (R, Option<Vec<String>>) {
    let outer = RECORDING.with(|r| r.borrow_mut().replace(Some(Vec::new())));
    let restore = Restore(outer);
    let value = f();
    let reads = RECORDING.with(|r| r.borrow_mut().take()).flatten();
    drop(restore);
    (value, reads)
}

/// Note a read of `table/key` in the open recording, if any.
pub(crate) fn note(table: &str, key: &str) {
    RECORDING.with(|r| {
        if let Some(Some(labels)) = r.borrow_mut().as_mut() {
            labels.push(format!("{table}/{key}"));
        }
    });
}

/// The open recording's script used data the repository did not serve
/// it: its read set is unknown.
pub fn note_unseen() {
    RECORDING.with(|r| {
        if let Some(recording) = r.borrow_mut().as_mut() {
            *recording = None;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Repository, Row};

    fn repo() -> std::sync::Arc<Repository> {
        let r = Repository::with_defaults();
        r.seed("books", "b1", Row::new().with("price", 9.0));
        r
    }

    #[test]
    fn records_point_reads_and_scans_by_label() {
        let r = repo();
        let ((), reads) = record(|| {
            let _ = r.get("books", "b1");
            let _ = r.get("books", "ghost");
            let _ = r.scan_where("books", |_, _| true);
            let _ = r.keys("users");
        });
        assert_eq!(
            reads.unwrap(),
            ["books/b1", "books/ghost", "books/*", "users/*"]
        );
    }

    #[test]
    fn nothing_is_recorded_outside_a_recording() {
        let r = repo();
        let _ = r.get("books", "b1");
        let ((), reads) = record(|| ());
        assert_eq!(reads.unwrap(), Vec::<String>::new());
    }

    #[test]
    fn an_unseen_read_makes_the_set_unknown() {
        let r = repo();
        let ((), reads) = record(|| {
            let _ = r.get("books", "b1");
            note_unseen();
            let _ = r.get("books", "b1");
        });
        assert_eq!(reads, None);
    }

    #[test]
    fn recordings_nest_and_a_panic_closes_its_own() {
        let r = repo();
        let ((), outer) = record(|| {
            let _ = r.get("books", "b1");
            let ((), inner) = record(|| {
                let _ = r.get("books", "b2");
            });
            assert_eq!(inner.unwrap(), ["books/b2"]);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                record(|| panic!("render failed"))
            }));
            assert!(caught.is_err());
            let _ = r.get("books", "b3");
        });
        assert_eq!(outer.unwrap(), ["books/b1", "books/b3"]);
        let _ = r.get("books", "b4");
        assert!(RECORDING.with(|r| r.borrow().is_none()));
    }
}
