//! Shared substrate for the QBS reproduction: identifiers, scalar values,
//! schemas, records, and ordered relations.
//!
//! The paper's Theory of Ordered Relations (TOR) operates on three kinds of
//! values — scalars, immutable records, and finite **ordered** relations
//! (lists of records). This crate provides those value types with
//! order-sensitive equality, plus the schema machinery used by the SQL layer
//! and the in-memory database engine.
//!
//! # Example
//!
//! ```
//! use qbs_common::{Schema, FieldType, Record, Relation, Value};
//!
//! let schema = Schema::builder("users")
//!     .field("id", FieldType::Int)
//!     .field("name", FieldType::Str)
//!     .finish();
//! let alice = Record::new(schema.clone(), vec![Value::from(1), Value::from("alice")]);
//! let rel = Relation::from_records(schema, vec![alice]).unwrap();
//! assert_eq!(rel.len(), 1);
//! ```

mod error;
mod ident;
mod record;
mod relation;
mod schema;
mod value;

pub use error::{CommonError, ErrorSource, QbsError, Result};
pub use ident::Ident;
pub use record::Record;
pub use relation::Relation;
pub use schema::{Field, FieldRef, FieldType, Schema, SchemaBuilder, SchemaRef};
pub use value::Value;
