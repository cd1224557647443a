//! # dpc-repository — the site content repository substrate
//!
//! The paper's testbed generated pages from "an ASP-based site which
//! retrieves content from a site content repository" (Oracle 8.1.6). That
//! repository is rebuilt here as an in-memory multi-table store with:
//!
//! * typed rows and predicate scans ([`table`], [`value`]);
//! * a **cost model** ([`cost`]) charging simulated latencies per operation
//!   class, so the origin's content-generation delay (§2.2.2) is a measured
//!   model quantity instead of wall-clock noise;
//! * an **update bus** ([`bus`]) publishing `"table/key"` dependency labels
//!   on every mutation — the invalidation feed the BEM's cache invalidation
//!   manager subscribes to;
//! * **read recording** ([`reads`]): the labels of the rows one render
//!   read, the read set a page cached above the origin is judged by;
//! * deterministic **demo datasets** ([`datasets`]) for the two applications
//!   the paper motivates: a BooksOnline catalog site and an online brokerage
//!   (stock quote pages with price/headline/research fragments).
//!
//! Why this preserves the paper's behaviour: the DPC/BEM mechanism only
//! needs a data source that (a) yields keyed content of controllable size,
//! (b) charges per-query work, and (c) reports updates. All three are
//! modelled explicitly; nothing in the cache path can tell this apart from
//! a SQL engine behind JDBC.

pub mod bus;
pub mod cost;
pub mod datasets;
pub mod reads;
pub mod store;
pub mod table;
pub mod value;

pub use bus::UpdateBus;
pub use cost::{CostModel, Costed};
pub use store::Repository;
pub use table::{Row, Table};
pub use value::Value;
