//! A second source for the JSON pull API, for tests: driving a
//! schema-directed body through it and through the streaming reader checks
//! that the body reads events, not text.

use std::borrow::Cow;

use uplan_core::formats::json::{JsonEvent, JsonPull, JsonValue};
use uplan_core::Result;

/// Replays a parsed [`JsonValue`] as the events the streaming reader reads
/// from its serialization, then `Eof` for good, borrowing every string.
pub struct TreeReader<'v> {
    /// The events still to come, last first.
    events: Vec<JsonEvent<'v>>,
}

static EOF: JsonEvent<'static> = JsonEvent::Eof;

impl<'v> TreeReader<'v> {
    /// A reader replaying the given value as a complete document.
    pub fn new(value: &'v JsonValue<'_>) -> TreeReader<'v> {
        let mut events = Vec::new();
        push_events(value, &mut events);
        events.reverse();
        TreeReader { events }
    }
}

fn push_events<'v>(value: &'v JsonValue<'_>, out: &mut Vec<JsonEvent<'v>>) {
    let last = match value {
        JsonValue::Null => JsonEvent::Null,
        JsonValue::Bool(b) => JsonEvent::Bool(*b),
        JsonValue::Int(i) => JsonEvent::Int(*i),
        JsonValue::Float(f) => JsonEvent::Float(*f),
        JsonValue::Str(s) => JsonEvent::Str(Cow::Borrowed(s)),
        JsonValue::Array(items) => {
            out.push(JsonEvent::ArrayStart);
            items.iter().for_each(|item| push_events(item, out));
            JsonEvent::ArrayEnd
        }
        JsonValue::Object(members) => {
            out.push(JsonEvent::ObjectStart);
            for (key, value) in members {
                out.push(JsonEvent::Key(Cow::Borrowed(key)));
                push_events(value, out);
            }
            JsonEvent::ObjectEnd
        }
    };
    out.push(last);
}

impl<'v> JsonPull<'v> for TreeReader<'v> {
    fn next_event(&mut self) -> Result<JsonEvent<'v>> {
        Ok(self.events.pop().unwrap_or(JsonEvent::Eof))
    }

    fn peek_event(&mut self) -> Result<&JsonEvent<'v>> {
        Ok(self.events.last().unwrap_or(&EOF))
    }

    fn offset(&self) -> usize {
        0
    }
}
