//! In-memory spans recorded at the layer boundaries, from outside the
//! crates: name, start, end and the span that caused it. Written out as
//! Chrome-trace JSON when the traced run ends.

use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// Id of the enclosing span, if any.
    pub parent: Option<u32>,
    pub name: String,
    /// Microseconds since the recorder was created.
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_us - self.start_us) * 1e-6
    }
}

pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span named `name`, nested under whichever span is
    /// open. Returns `f`'s value and the span's duration in seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> (T, f64) {
        let id = self.spans.len() as u32;
        let start_us = self.now_us();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_us,
            end_us: start_us,
        });
        self.open.push(id);
        let value = f(self);
        self.open.pop();
        let end_us = self.now_us();
        self.spans[id as usize].end_us = end_us;
        (value, (end_us - start_us) * 1e-6)
    }
}

/// Self time of span `id`: its duration minus the part its direct children
/// cover (children of one parent never overlap: the recorder is a stack).
pub fn self_seconds(spans: &[Span], id: u32) -> f64 {
    let covered: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::seconds)
        .sum();
    spans[id as usize].seconds() - covered
}

/// Chrome-trace JSON (`chrome://tracing`, Perfetto) of several recorders'
/// spans. Each `(process name, spans)` becomes one pid; `workload` is the
/// identifier every span of the run shares.
pub fn chrome_json(workload: &str, processes: &[(&str, &[Span])]) -> String {
    let mut events = Vec::new();
    for (pid, (pname, spans)) in processes.iter().enumerate() {
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{pname}\"}}}}"
        ));
        events.extend(spans.iter().map(|s| {
            format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"workload\":\"{workload}\",\"self_us\":{:.3}}}}}",
                s.name,
                s.start_us,
                s.end_us - s.start_us,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                self_seconds(spans, s.id) * 1e6,
            )
        }));
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let mut rec = Recorder::new();
        rec.span("outer", |rec| {
            rec.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            rec.span("b", |rec| {
                rec.span("b.inner", |_| ());
            });
        });
        let names: Vec<_> = rec
            .spans
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(
            names,
            [
                ("outer", None),
                ("a", Some(0)),
                ("b", Some(0)),
                ("b.inner", Some(2))
            ]
        );
        let outer = &rec.spans[0];
        let own = self_seconds(&rec.spans, 0);
        assert!(own >= 0.0 && own < outer.seconds());
        assert!(rec.spans[1].seconds() >= 0.002);
        let json = chrome_json("w", &[("child", &rec.spans)]);
        assert!(json.contains("\"name\":\"b.inner\"") && json.contains("\"parent\":2"));
    }
}
