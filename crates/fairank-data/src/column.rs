//! Columnar storage with dictionary-encoded categoricals.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::error::{DataError, Result};
use crate::schema::DataType;

/// The values of one column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ColumnData {
    /// Dictionary-encoded strings: `codes[i]` indexes into `labels`.
    Categorical { codes: Vec<u32>, labels: Vec<String> },
    /// 64-bit floats.
    Float(Vec<f64>),
    /// 64-bit signed integers.
    Integer(Vec<i64>),
}

impl ColumnData {
    /// Builds a categorical column from raw strings, encoding in
    /// first-appearance order. Labels are indexed by a hash map while
    /// building, so a column of unique values (an id column) encodes in
    /// linear time.
    pub fn categorical_from<S: AsRef<str>>(values: &[S]) -> Self {
        let mut index: HashMap<&str, u32> = HashMap::new();
        let mut labels: Vec<String> = Vec::new();
        let codes = values
            .iter()
            .map(|v| {
                let v = v.as_ref();
                *index.entry(v).or_insert_with(|| {
                    labels.push(v.to_string());
                    (labels.len() - 1) as u32
                })
            })
            .collect();
        ColumnData::Categorical { codes, labels }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Categorical { codes, .. } => codes.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Integer(v) => v.len(),
        }
    }

    /// True when the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The physical type of this column.
    pub fn dtype(&self) -> DataType {
        match self {
            ColumnData::Categorical { .. } => DataType::Categorical,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Integer(_) => DataType::Integer,
        }
    }

    /// Renders value `row` as a display string.
    pub fn render(&self, row: usize) -> String {
        match self {
            ColumnData::Categorical { codes, labels } => {
                labels[codes[row] as usize].clone()
            }
            ColumnData::Float(v) => format_float(v[row]),
            ColumnData::Integer(v) => v[row].to_string(),
        }
    }

    /// Takes the given rows, producing a new column.
    pub fn take(&self, rows: &[u32]) -> ColumnData {
        match self {
            ColumnData::Categorical { codes, labels } => ColumnData::Categorical {
                codes: rows.iter().map(|&r| codes[r as usize]).collect(),
                labels: labels.clone(),
            },
            ColumnData::Float(v) => {
                ColumnData::Float(rows.iter().map(|&r| v[r as usize]).collect())
            }
            ColumnData::Integer(v) => {
                ColumnData::Integer(rows.iter().map(|&r| v[r as usize]).collect())
            }
        }
    }

    /// Numeric view of the value at `row`, if the column is numeric.
    pub fn numeric(&self, row: usize) -> Option<f64> {
        match self {
            ColumnData::Float(v) => Some(v[row]),
            ColumnData::Integer(v) => Some(v[row] as f64),
            ColumnData::Categorical { .. } => None,
        }
    }
}

/// Renders a float the way FaiRank's CSV writer and panels expect:
/// integral values without a trailing `.0` are kept distinguishable from
/// integers by always including a decimal point.
pub(crate) fn format_float(v: f64) -> String {
    if v == v.trunc() && v.is_finite() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// A named column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Column {
    /// Column name, unique within a dataset.
    pub name: String,
    /// The values.
    pub data: ColumnData,
}

impl Column {
    /// Creates a column, rejecting empty names.
    pub fn new(name: impl Into<String>, data: ColumnData) -> Result<Self> {
        let name = name.into();
        if name.trim().is_empty() {
            return Err(DataError::UnknownColumn("<empty name>".into()));
        }
        Ok(Column { name, data })
    }

    /// The float slice of a [`ColumnData::Float`] column.
    pub fn as_float(&self) -> Option<&[f64]> {
        match &self.data {
            ColumnData::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The codes/labels of a [`ColumnData::Categorical`] column.
    pub fn as_categorical(&self) -> Option<(&[u32], &[String])> {
        match &self.data {
            ColumnData::Categorical { codes, labels } => Some((codes, labels)),
            _ => None,
        }
    }

    /// The int slice of a [`ColumnData::Integer`] column.
    pub fn as_integer(&self) -> Option<&[i64]> {
        match &self.data {
            ColumnData::Integer(v) => Some(v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categorical_encoding() {
        let c = ColumnData::categorical_from(&["x", "y", "x", "z"]);
        match &c {
            ColumnData::Categorical { codes, labels } => {
                assert_eq!(codes, &[0, 1, 0, 2]);
                assert_eq!(labels, &["x", "y", "z"]);
            }
            _ => panic!("wrong type"),
        }
        assert_eq!(c.len(), 4);
        assert_eq!(c.dtype(), DataType::Categorical);
        assert_eq!(c.render(3), "z");
    }

    #[test]
    fn categorical_codes_follow_first_appearance_with_unique_and_repeated_labels() {
        // An id-like column of unique labels interleaved with a repeated
        // few: codes must match a first-appearance linear scan.
        let values: Vec<String> = (0..500)
            .map(|i| if i % 3 == 0 { format!("rep{}", i % 4) } else { format!("id{i}") })
            .collect();
        let mut want_labels: Vec<String> = Vec::new();
        let mut want_codes = Vec::new();
        for v in &values {
            let code = match want_labels.iter().position(|l| l == v) {
                Some(i) => i,
                None => {
                    want_labels.push(v.clone());
                    want_labels.len() - 1
                }
            };
            want_codes.push(code as u32);
        }
        match ColumnData::categorical_from(&values) {
            ColumnData::Categorical { codes, labels } => {
                assert_eq!(codes, want_codes);
                assert_eq!(labels, want_labels);
            }
            other => panic!("wrong type: {other:?}"),
        }
    }

    #[test]
    fn take_reindexes_all_types() {
        let cat = ColumnData::categorical_from(&["a", "b", "c"]);
        let took = cat.take(&[2, 0]);
        assert_eq!(took.render(0), "c");
        assert_eq!(took.render(1), "a");

        let f = ColumnData::Float(vec![1.5, 2.5, 3.5]).take(&[1]);
        assert_eq!(f.render(0), "2.5");

        let i = ColumnData::Integer(vec![10, 20]).take(&[1, 0]);
        assert_eq!(i.render(0), "20");
    }

    #[test]
    fn numeric_views() {
        assert_eq!(ColumnData::Float(vec![0.5]).numeric(0), Some(0.5));
        assert_eq!(ColumnData::Integer(vec![7]).numeric(0), Some(7.0));
        assert_eq!(ColumnData::categorical_from(&["a"]).numeric(0), None);
    }

    #[test]
    fn float_rendering() {
        assert_eq!(format_float(2.0), "2.0");
        assert_eq!(format_float(0.911), "0.911");
        assert_eq!(format_float(-3.0), "-3.0");
    }

    #[test]
    fn column_accessors() {
        let c = Column::new("r", ColumnData::Float(vec![0.1])).unwrap();
        assert!(c.as_float().is_some());
        assert!(c.as_categorical().is_none());
        assert!(c.as_integer().is_none());
        assert!(Column::new("  ", ColumnData::Float(vec![])).is_err());
    }

    #[test]
    fn empty_checks() {
        assert!(ColumnData::Float(vec![]).is_empty());
        assert!(!ColumnData::Integer(vec![1]).is_empty());
    }
}
