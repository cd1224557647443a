//! The repository facade: named tables + cost model + update bus.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use crate::bus::UpdateBus;
use crate::cost::{CostModel, Costed};
use crate::table::{Row, Table};

/// In-memory multi-table content repository.
///
/// All read operations return [`Costed`] values carrying the simulated
/// query latency; all mutations publish invalidation labels on the
/// [`UpdateBus`].
pub struct Repository {
    tables: RwLock<HashMap<String, Table>>,
    bus: Arc<UpdateBus>,
    cost: CostModel,
}

impl Repository {
    pub fn new(cost: CostModel) -> Arc<Repository> {
        Arc::new(Repository {
            tables: RwLock::new(HashMap::new()),
            bus: Arc::new(UpdateBus::new()),
            cost,
        })
    }

    /// Repository with the default cost model.
    pub fn with_defaults() -> Arc<Repository> {
        Repository::new(CostModel::default())
    }

    /// The invalidation feed.
    pub fn bus(&self) -> &Arc<UpdateBus> {
        &self.bus
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Create an empty table (idempotent).
    pub fn create_table(&self, name: &str) {
        self.tables.write().entry(name.to_owned()).or_default();
    }

    /// Bulk load a row without publishing updates (initial seeding).
    pub fn seed(&self, table: &str, key: &str, row: Row) {
        let mut tables = self.tables.write();
        tables.entry(table.to_owned()).or_default().put(key, row);
    }

    /// Point lookup. Recorded as a read of `table/key` ([`crate::reads`]).
    pub fn get(&self, table: &str, key: &str) -> Costed<Option<Row>> {
        crate::reads::note(table, key);
        let tables = self.tables.read();
        let row = tables.get(table).and_then(|t| t.get(key)).cloned();
        let bytes = row.as_ref().map(Row::size_bytes).unwrap_or(0);
        Costed::new(row, self.cost.lookup(bytes))
    }

    /// Predicate scan over a table. Recorded as a read of `table/*`.
    pub fn scan_where<F>(&self, table: &str, pred: F) -> Costed<Vec<(String, Row)>>
    where
        F: FnMut(&str, &Row) -> bool,
    {
        crate::reads::note(table, "*");
        let tables = self.tables.read();
        let Some(t) = tables.get(table) else {
            return Costed::new(Vec::new(), self.cost.scan(0, 0));
        };
        let (rows, examined) = t.scan_where(pred);
        let bytes: usize = rows.iter().map(|(_, r)| r.size_bytes()).sum();
        Costed::new(rows, self.cost.scan(examined, bytes))
    }

    /// All keys of a table (cheap metadata read; charged as a scan with no
    /// materialization). Recorded as a read of `table/*`.
    pub fn keys(&self, table: &str) -> Costed<Vec<String>> {
        crate::reads::note(table, "*");
        let tables = self.tables.read();
        let keys: Vec<String> = tables
            .get(table)
            .map(|t| t.keys().map(str::to_owned).collect())
            .unwrap_or_default();
        let n = keys.len();
        Costed::new(keys, self.cost.scan(n, 0))
    }

    /// Update a row in place; publishes `table/key` and `table/*`. Returns
    /// false (still charged) when the row does not exist.
    pub fn update<F>(&self, table: &str, key: &str, f: F) -> Costed<bool>
    where
        F: FnOnce(&mut Row),
    {
        let updated = {
            let mut tables = self.tables.write();
            match tables.get_mut(table).and_then(|t| t.get_mut(key)) {
                Some(row) => {
                    f(row);
                    true
                }
                None => false,
            }
        };
        if updated {
            self.bus.publish_row_update(table, key);
        }
        Costed::new(updated, self.cost.update())
    }

    /// Insert or replace a row; publishes updates.
    pub fn put(&self, table: &str, key: &str, row: Row) -> Costed<()> {
        {
            let mut tables = self.tables.write();
            tables.entry(table.to_owned()).or_default().put(key, row);
        }
        self.bus.publish_row_update(table, key);
        Costed::new((), self.cost.update())
    }

    /// Delete a row; publishes updates when it existed.
    pub fn delete(&self, table: &str, key: &str) -> Costed<bool> {
        let existed = {
            let mut tables = self.tables.write();
            tables.get_mut(table).and_then(|t| t.remove(key)).is_some()
        };
        if existed {
            self.bus.publish_row_update(table, key);
        }
        Costed::new(existed, self.cost.update())
    }

    /// Number of rows in a table.
    pub fn table_len(&self, table: &str) -> usize {
        self.tables.read().get(table).map_or(0, Table::len)
    }

    /// Names of all tables.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }
}

/// Total simulated cost accumulator — a convenience for callers that issue
/// several queries while building one page.
#[derive(Debug, Default, Clone, Copy)]
pub struct CostAccumulator {
    total: Duration,
    queries: u32,
}

impl CostAccumulator {
    pub fn new() -> CostAccumulator {
        CostAccumulator::default()
    }

    /// Record a costed result, returning its value.
    pub fn take<T>(&mut self, costed: Costed<T>) -> T {
        self.total += costed.cost;
        self.queries += 1;
        costed.value
    }

    /// Total simulated latency so far.
    pub fn total(&self) -> Duration {
        self.total
    }

    /// Number of operations recorded.
    pub fn queries(&self) -> u32 {
        self.queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    fn repo() -> Arc<Repository> {
        let r = Repository::with_defaults();
        r.seed(
            "books",
            "b1",
            Row::new().with("title", "Dune").with("price", 9.99),
        );
        r.seed(
            "books",
            "b2",
            Row::new().with("title", "Hyperion").with("price", 12.50),
        );
        r
    }

    #[test]
    fn get_and_scan() {
        let r = repo();
        let got = r.get("books", "b1");
        assert_eq!(got.value.unwrap().str("title"), "Dune");
        assert!(got.cost > Duration::ZERO);
        let scan = r.scan_where("books", |_, row| row.float("price") > 10.0);
        assert_eq!(scan.value.len(), 1);
        assert_eq!(scan.value[0].1.str("title"), "Hyperion");
    }

    #[test]
    fn missing_table_and_key() {
        let r = repo();
        assert!(r.get("none", "x").value.is_none());
        assert!(r.scan_where("none", |_, _| true).value.is_empty());
        assert!(!r.update("books", "ghost", |_| {}).value);
    }

    #[test]
    fn seeding_does_not_publish_but_update_does() {
        let r = repo();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = Arc::clone(&seen);
        r.bus().subscribe(move |dep| s.lock().push(dep.to_owned()));
        r.seed("books", "b3", Row::new().with("title", "Foundation"));
        assert!(seen.lock().is_empty());
        r.update("books", "b1", |row| row.set("price", 11.0));
        assert_eq!(&*seen.lock(), &["books/b1", "books/*"]);
        assert_eq!(r.get("books", "b1").value.unwrap().float("price"), 11.0);
    }

    #[test]
    fn put_and_delete_publish() {
        let r = repo();
        let seen = Arc::new(Mutex::new(0usize));
        let s = Arc::clone(&seen);
        r.bus().subscribe(move |_| *s.lock() += 1);
        r.put("books", "b9", Row::new().with("title", "New"));
        r.delete("books", "b9");
        r.delete("books", "b9"); // second delete publishes nothing
        assert_eq!(*seen.lock(), 4);
        assert_eq!(r.table_len("books"), 2);
    }

    #[test]
    fn cost_accumulator_sums() {
        let r = repo();
        let mut acc = CostAccumulator::new();
        let _row = acc.take(r.get("books", "b1"));
        let _rows = acc.take(r.scan_where("books", |_, _| true));
        assert_eq!(acc.queries(), 2);
        assert!(acc.total() > Duration::ZERO);
    }

    #[test]
    fn table_names_sorted() {
        let r = repo();
        r.create_table("aaa");
        assert_eq!(r.table_names(), vec!["aaa".to_owned(), "books".to_owned()]);
    }
}
