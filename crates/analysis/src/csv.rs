//! Minimal CSV output (hand-rolled on purpose: the only serialization
//! this workspace needs is flat numeric tables, which does not justify
//! a serde dependency).

use std::io::{self, Write};

/// Quote a cell per RFC 4180 when it contains a comma, quote or
/// newline.
fn escape(cell: &str) -> String {
    if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Write a header and rows as CSV.
pub fn write_csv<W: Write>(mut w: W, headers: &[&str], rows: &[Vec<String>]) -> io::Result<()> {
    writeln!(w, "{}", headers.iter().map(|h| escape(h)).collect::<Vec<_>>().join(","))?;
    for row in rows {
        debug_assert_eq!(row.len(), headers.len(), "CSV row arity mismatch");
        writeln!(w, "{}", row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","))?;
    }
    Ok(())
}

/// Render to a `String` (convenience for tests and small outputs).
pub fn to_csv_string(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut buf = Vec::new();
    write_csv(&mut buf, headers, rows).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("CSV output is UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_rows() {
        let s = to_csv_string(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        assert_eq!(s, "a,b\n1,2\n3,4\n");
    }

    #[test]
    fn quoting() {
        let s = to_csv_string(&["x"], &[vec!["has,comma".into()], vec!["has\"quote".into()]]);
        assert_eq!(s, "x\n\"has,comma\"\n\"has\"\"quote\"\n");
    }

    #[test]
    fn empty_rows() {
        assert_eq!(to_csv_string(&["h"], &[]), "h\n");
    }
}
