//! CSV persistence for event streams.
//!
//! The paper's harness reads fixed time-frame extracts of the datasets
//! from CSV files with a simple source operator (Section 5.1.2); this
//! module provides the same interchange format:
//!
//! ```text
//! type,id,lat,lon,ts_ms,value
//! Q,17,50.113,8.672,540000,42.5
//! ```

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use asp::event::{Event, TypeRegistry};
use asp::time::Timestamp;

/// Write a stream to CSV, resolving type names via the registry.
pub fn write_stream(path: &Path, events: &[Event], reg: &TypeRegistry) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "type,id,lat,lon,ts_ms,value")?;
    for e in events {
        let tname = reg
            .name(e.etype)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unregistered type"))?;
        writeln!(
            w,
            "{},{},{},{},{},{}",
            tname,
            e.id,
            e.lat,
            e.lon,
            e.ts.millis(),
            e.value
        )?;
    }
    w.flush()
}

/// Read a stream from CSV, interning unknown type names.
///
/// Every field parses strictly as its column's type: `id` as a `u32`,
/// `ts_ms` as an `i64`, and `lat`, `lon` and `value` as finite floats
/// (`lat`/`lon` must fit an `f32`). A bad field, a wrong field count, or a
/// new type name once the registry's id space is exhausted is an
/// [`io::ErrorKind::InvalidData`] error naming the line; nothing is
/// silently saturated or truncated.
pub fn read_stream(path: &Path, reg: &mut TypeRegistry) -> io::Result<Vec<Event>> {
    let r = BufReader::new(File::open(path)?);
    let mut out = Vec::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        if lineno == 0 || line.trim().is_empty() {
            continue; // header
        }
        let parts: Vec<&str> = line.split(',').map(str::trim).collect();
        let [tname, id, lat, lon, ts, value] = parts[..] else {
            return Err(bad_line(lineno, "field count: expected 6".into()));
        };
        let etype = reg
            .try_intern(tname)
            .ok_or_else(|| bad_line(lineno, format!("type `{tname}`: type universe exhausted")))?;
        out.push(Event {
            etype,
            id: parse_field(lineno, "id", id)?,
            lat: parse_finite(lineno, "lat", lat)?,
            lon: parse_finite(lineno, "lon", lon)?,
            ts: Timestamp(parse_field(lineno, "ts_ms", ts)?),
            value: parse_finite(lineno, "value", value)?,
        });
    }
    Ok(out)
}

/// Parse one field as `T`, naming the column and the raw text on failure.
fn parse_field<T: std::str::FromStr>(lineno: usize, col: &str, raw: &str) -> io::Result<T> {
    raw.parse()
        .map_err(|_| bad_line(lineno, format!("{col} `{raw}`")))
}

/// Parse one float field, refusing NaN and infinities (including an `f32`
/// overflow such as `1e300`).
fn parse_finite<F>(lineno: usize, col: &str, raw: &str) -> io::Result<F>
where
    F: std::str::FromStr + Into<f64> + Copy,
{
    let x: F = parse_field(lineno, col, raw)?;
    if x.into().is_finite() {
        Ok(x)
    } else {
        Err(bad_line(
            lineno,
            format!("{col} `{raw}`: not a finite number"),
        ))
    }
}

fn bad_line(lineno: usize, what: String) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("CSV line {}: bad {what}", lineno + 1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_qnv, QnvConfig, ValueModel};
    use crate::types;

    #[test]
    fn round_trip_preserves_events() {
        let reg = types::registry();
        let w = generate_qnv(&QnvConfig {
            sensors: 3,
            minutes: 5,
            seed: 11,
            value_model: ValueModel::Uniform,
        });
        let dir = std::env::temp_dir().join("cep2asp_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("q.csv");
        write_stream(&path, w.stream(types::Q), &reg).unwrap();
        let mut reg2 = types::registry();
        let back = read_stream(&path, &mut reg2).unwrap();
        assert_eq!(back.len(), w.stream(types::Q).len());
        for (a, b) in back.iter().zip(w.stream(types::Q)) {
            assert_eq!(a.etype, b.etype);
            assert_eq!(a.id, b.id);
            assert_eq!(a.ts, b.ts);
            assert!((a.value - b.value).abs() < 1e-9);
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn malformed_lines_are_reported_with_position() {
        let dir = std::env::temp_dir().join("cep2asp_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.csv");
        std::fs::write(&path, "type,id,lat,lon,ts_ms,value\nQ,1,2,3\n").unwrap();
        let mut reg = types::registry();
        let err = read_stream(&path, &mut reg).unwrap_err().to_string();
        assert!(err.contains("line 2"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn out_of_range_and_non_finite_fields_are_errors() {
        let dir = std::env::temp_dir().join("cep2asp_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        for (i, row) in [
            "Q,-1,0,0,1000,5.5",
            "Q,4.7,0,0,1000,5.5",
            "Q,4294967296,0,0,1000,5.5",
            "Q,1,0,0,NaN,5.5",
            "Q,1,0,0,1e300,5.5",
            "Q,1,0,0,1000.5,5.5",
            "Q,1,1e300,0,1000,5.5",
            "Q,1,0,inf,1000,5.5",
            "Q,1,0,0,1000,NaN",
        ]
        .iter()
        .enumerate()
        {
            let path = dir.join(format!("range_{i}.csv"));
            std::fs::write(
                &path,
                format!("type,id,lat,lon,ts_ms,value\nQ,1,0,0,0,1\n{row}\n"),
            )
            .unwrap();
            let mut reg = types::registry();
            let err = read_stream(&path, &mut reg).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{row}");
            assert!(err.to_string().contains("line 3"), "{row}: {err}");
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn exhausting_the_type_universe_is_an_error() {
        let dir = std::env::temp_dir().join("cep2asp_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("many_types_{}.csv", std::process::id()));
        let mut text = String::from("type,id,lat,lon,ts_ms,value\n");
        for i in 0..u16::MAX as usize + 1 {
            text.push_str(&format!("T{i},1,0,0,{i},1\n"));
        }
        std::fs::write(&path, text).unwrap();
        let mut reg = TypeRegistry::new();
        let err = read_stream(&path, &mut reg).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("type universe exhausted"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn unknown_types_are_interned_on_read() {
        let dir = std::env::temp_dir().join("cep2asp_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("new_type.csv");
        std::fs::write(&path, "type,id,lat,lon,ts_ms,value\nOzone,1,0,0,1000,5.5\n").unwrap();
        let mut reg = types::registry();
        let evs = read_stream(&path, &mut reg).unwrap();
        assert_eq!(evs.len(), 1);
        assert_eq!(reg.name(evs[0].etype), Some("Ozone"));
        std::fs::remove_file(path).ok();
    }
}
