//! Data life-cycle events.
//!
//! ActiveData "provides programmers event-driven programming facilities to
//! react to the main data life-cycle events: creation, copy and deletion"
//! (§3.1). Listing 2 of the paper installs `onDataCopyEvent` /
//! `onDataDeleteEvent` handlers on both the Updater and the Updatee; the
//! reservoir runtime fires these as its cache changes.
//!
//! Handlers attach to a node through the subscription event bus
//! ([`ActiveData::add_handler`](crate::api::ActiveData::add_handler) with
//! an [`EventFilter`](crate::api::EventFilter);
//! [`EventFilter::any`](crate::api::EventFilter::any) for every event) and
//! are invoked synchronously as matching events are published on either
//! deployment.

use crate::api::{DataEvent, DataEventKind};
use crate::attr::DataAttributes;
use crate::data::Data;

/// Handler for data life-cycle events on a node. All methods default to
/// no-ops so implementors override only what they react to, as in the
/// paper's `ActiveDataEventHandler`.
pub trait ActiveDataEventHandler: Send {
    /// A datum was created/scheduled on this node's view.
    fn on_data_create(&mut self, _data: &Data, _attrs: &DataAttributes) {}
    /// A datum finished copying into this node's cache.
    fn on_data_copy(&mut self, _data: &Data, _attrs: &DataAttributes) {}
    /// A datum became obsolete and was removed from this node's cache.
    fn on_data_delete(&mut self, _data: &Data, _attrs: &DataAttributes) {}

    /// Full-event entry point the bus dispatches through: receives the
    /// whole [`DataEvent`] (including the observing
    /// [`host`](crate::api::DataEvent::host)) and routes to the three
    /// kind-specific methods by default. Override it to consume the event
    /// wholesale.
    fn on_event(&mut self, event: &DataEvent) {
        match event.kind {
            DataEventKind::Create => self.on_data_create(&event.data, &event.attrs),
            DataEventKind::Copy => self.on_data_copy(&event.data, &event.attrs),
            DataEventKind::Delete => self.on_data_delete(&event.data, &event.attrs),
        }
    }
}

/// A boxed life-cycle callback.
type Callback = Box<dyn FnMut(&Data, &DataAttributes) + Send>;

/// Closure-based handler, for callers who don't want a named type.
pub struct CallbackHandler {
    on_create: Option<Callback>,
    on_copy: Option<Callback>,
    on_delete: Option<Callback>,
}

impl Default for CallbackHandler {
    fn default() -> Self {
        Self::new()
    }
}

impl CallbackHandler {
    /// Handler with no callbacks installed.
    pub fn new() -> CallbackHandler {
        CallbackHandler {
            on_create: None,
            on_copy: None,
            on_delete: None,
        }
    }

    /// React to creation events.
    pub fn on_create(mut self, f: impl FnMut(&Data, &DataAttributes) + Send + 'static) -> Self {
        self.on_create = Some(Box::new(f));
        self
    }

    /// React to copy events.
    pub fn on_copy(mut self, f: impl FnMut(&Data, &DataAttributes) + Send + 'static) -> Self {
        self.on_copy = Some(Box::new(f));
        self
    }

    /// React to deletion events.
    pub fn on_delete(mut self, f: impl FnMut(&Data, &DataAttributes) + Send + 'static) -> Self {
        self.on_delete = Some(Box::new(f));
        self
    }
}

impl ActiveDataEventHandler for CallbackHandler {
    fn on_data_create(&mut self, data: &Data, attrs: &DataAttributes) {
        if let Some(f) = &mut self.on_create {
            f(data, attrs);
        }
    }
    fn on_data_copy(&mut self, data: &Data, attrs: &DataAttributes) {
        if let Some(f) = &mut self.on_copy {
            f(data, attrs);
        }
    }
    fn on_data_delete(&mut self, data: &Data, attrs: &DataAttributes) {
        if let Some(f) = &mut self.on_delete {
            f(data, attrs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitdew_util::Auid;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    #[test]
    fn callbacks_fire_selectively() {
        let copies = Arc::new(AtomicU32::new(0));
        let deletes = Arc::new(AtomicU32::new(0));
        let c2 = Arc::clone(&copies);
        let d2 = Arc::clone(&deletes);
        let mut h = CallbackHandler::new()
            .on_copy(move |_, _| {
                c2.fetch_add(1, Ordering::Relaxed);
            })
            .on_delete(move |_, _| {
                d2.fetch_add(1, Ordering::Relaxed);
            });
        let data = Data::from_bytes(Auid(1), "x", b"x");
        let attrs = DataAttributes::default();
        h.on_data_create(&data, &attrs); // no handler — no panic
        h.on_data_copy(&data, &attrs);
        h.on_data_copy(&data, &attrs);
        h.on_data_delete(&data, &attrs);
        assert_eq!(copies.load(Ordering::Relaxed), 2);
        assert_eq!(deletes.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn default_trait_methods_are_noops() {
        struct Silent;
        impl ActiveDataEventHandler for Silent {}
        let mut s = Silent;
        let data = Data::from_bytes(Auid(1), "x", b"x");
        s.on_data_create(&data, &DataAttributes::default());
        s.on_data_copy(&data, &DataAttributes::default());
        s.on_data_delete(&data, &DataAttributes::default());
    }
}
