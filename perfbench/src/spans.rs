//! The benchmark's own spans around each public call of a traced pass:
//! name, host start/end, parent and op id, kept in memory and written
//! as TSV at the end of the run.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: usize,
    op: u64,
    start_ns: u64,
    end_ns: u64,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span; ids start at 1 and 0 means "no parent".
    pub fn begin(&mut self, name: &'static str, parent: usize, op: u64) -> usize {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len()
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id - 1].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.parent,
                s.op,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}
