//! Automation rules: the structured trigger-action semantics plus the
//! platform-phrased natural-language description that the NLP pipeline sees.

use crate::device::{Channel, Device, DeviceKind, Location};

/// The five IoT automation platforms evaluated in the paper (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Platform {
    SmartThings,
    HomeAssistant,
    Ifttt,
    GoogleAssistant,
    AmazonAlexa,
}

impl Platform {
    pub const ALL: [Platform; 5] = [
        Platform::SmartThings,
        Platform::HomeAssistant,
        Platform::Ifttt,
        Platform::GoogleAssistant,
        Platform::AmazonAlexa,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Platform::SmartThings => "SmartThings",
            Platform::HomeAssistant => "Home Assistant",
            Platform::Ifttt => "IFTTT",
            Platform::GoogleAssistant => "Google Assistant",
            Platform::AmazonAlexa => "Amazon Alexa",
        }
    }

    /// Voice-assistant platforms phrase rules as concise commands and are
    /// embedded with the sentence encoder; the others use word embeddings of
    /// key phrases (paper §IV-A).
    pub fn uses_sentence_embeddings(self) -> bool {
        matches!(self, Platform::GoogleAssistant | Platform::AmazonAlexa)
    }
}

/// What a rule waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trigger {
    /// A device reaches an activation state ("when the lights are on").
    DeviceState { device: Device, active: bool },
    /// A physical channel crosses into the high/low regime
    /// ("if temperature is high", "when smoke is detected").
    ChannelLevel {
        channel: Channel,
        location: Location,
        high: bool,
    },
    /// A fixed time of day ("at 7 am").
    Time { hour: u8 },
    /// Manual user interaction ("when I tap the button").
    Manual,
}

/// A command issued by a rule's action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Command {
    pub device: Device,
    /// `true` = activate (on/open/unlock/start), `false` = deactivate.
    pub activate: bool,
}

impl Command {
    /// Channels this command influences, with direction.
    pub fn channel_effects(&self) -> Vec<(Channel, i8)> {
        self.device.kind.channel_effects(self.activate)
    }
}

/// One automation rule with both its machine semantics and its description.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Stable id within a corpus.
    pub id: u32,
    pub platform: Platform,
    pub trigger: Trigger,
    pub actions: Vec<Command>,
    /// The natural-language description crawled/phrased for this platform.
    pub text: String,
}

impl Rule {
    /// Ground truth for interaction correlation discovery: can executing
    /// `self`'s actions satisfy `other`'s trigger?
    ///
    /// Two mechanisms compose an "action-trigger" correlation:
    /// 1. *Explicit*: a command drives exactly the device state the other
    ///    rule's trigger waits for.
    /// 2. *Physical*: a command's channel effect pushes the channel of a
    ///    `ChannelLevel` trigger in the requested direction at the same
    ///    location (a heater turning on can raise "temperature is high").
    pub fn can_trigger(&self, other: &Rule) -> bool {
        match other.trigger {
            Trigger::DeviceState { device, active } => self
                .actions
                .iter()
                .any(|c| c.device == device && c.activate == active),
            Trigger::ChannelLevel {
                channel,
                location,
                high,
            } => {
                let want: i8 = if high { 1 } else { -1 };
                self.actions.iter().any(|c| {
                    c.device.location == location
                        && c.channel_effects()
                            .iter()
                            .any(|&(ch, dir)| ch == channel && dir == want)
                })
            }
            Trigger::Time { .. } | Trigger::Manual => false,
        }
    }
}

/// Phrases a trigger in platform-neutral English (corpus templates add
/// platform flavor around this core).
pub fn trigger_phrase(trigger: &Trigger) -> String {
    match trigger {
        Trigger::DeviceState { device, active } => {
            let (on_word, off_word) = device.kind.state_words();
            format!(
                "the {} is {}",
                device.name(),
                if *active { on_word } else { off_word }
            )
        }
        Trigger::ChannelLevel {
            channel,
            location,
            high,
        } => match channel {
            Channel::Smoke | Channel::Co | Channel::Motion => {
                if *high {
                    format!("{} is detected in the {}", channel.word(), location.word())
                } else {
                    format!(
                        "no {} is detected in the {}",
                        channel.word(),
                        location.word()
                    )
                }
            }
            Channel::Water => {
                if *high {
                    format!("a water leak is detected in the {}", location.word())
                } else {
                    format!("the {} is dry", location.word())
                }
            }
            _ => format!(
                "the {} in the {} is {}",
                channel.word(),
                location.word(),
                if *high { "high" } else { "low" }
            ),
        },
        Trigger::Time { hour } => format!("it is {} o'clock", hour),
        Trigger::Manual => "I tap the button".to_string(),
    }
}

/// Phrases a command ("open the kitchen water valve").
pub fn command_phrase(cmd: &Command) -> String {
    let (on_verb, off_verb) = cmd.device.kind.verbs();
    let verb = if cmd.activate { on_verb } else { off_verb };
    // "turn on" style verbs split around the object for naturalness.
    if let Some(rest) = verb.strip_prefix("turn ") {
        format!("turn the {} {}", cmd.device.name(), rest)
    } else {
        format!("{} the {}", verb, cmd.device.name())
    }
}

/// Helper to build devices tersely in tests and generators.
pub fn dev(kind: DeviceKind, location: Location) -> Device {
    Device::new(kind, location)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{DeviceKind as K, Location as L};

    fn rule(id: u32, trigger: Trigger, actions: Vec<Command>) -> Rule {
        Rule {
            id,
            platform: Platform::SmartThings,
            trigger,
            actions,
            text: String::new(),
        }
    }

    #[test]
    fn explicit_device_state_correlation() {
        // R1 turns lights on; R2 triggers when lights are on.
        let r1 = rule(
            1,
            Trigger::Manual,
            vec![Command {
                device: dev(K::Light, L::LivingRoom),
                activate: true,
            }],
        );
        let r2 = rule(
            2,
            Trigger::DeviceState {
                device: dev(K::Light, L::LivingRoom),
                active: true,
            },
            vec![],
        );
        assert!(r1.can_trigger(&r2));
        assert!(!r2.can_trigger(&r1));
    }

    #[test]
    fn polarity_must_match() {
        let r1 = rule(
            1,
            Trigger::Manual,
            vec![Command {
                device: dev(K::Light, L::LivingRoom),
                activate: false,
            }],
        );
        let r2 = rule(
            2,
            Trigger::DeviceState {
                device: dev(K::Light, L::LivingRoom),
                active: true,
            },
            vec![],
        );
        assert!(!r1.can_trigger(&r2));
    }

    #[test]
    fn location_must_match() {
        let r1 = rule(
            1,
            Trigger::Manual,
            vec![Command {
                device: dev(K::Light, L::Kitchen),
                activate: true,
            }],
        );
        let r2 = rule(
            2,
            Trigger::DeviceState {
                device: dev(K::Light, L::LivingRoom),
                active: true,
            },
            vec![],
        );
        assert!(!r1.can_trigger(&r2));
    }

    #[test]
    fn physical_channel_correlation() {
        // Heater on raises kitchen temperature -> triggers "temperature high".
        let r1 = rule(
            1,
            Trigger::Manual,
            vec![Command {
                device: dev(K::Heater, L::Kitchen),
                activate: true,
            }],
        );
        let r2 = rule(
            2,
            Trigger::ChannelLevel {
                channel: Channel::Temperature,
                location: L::Kitchen,
                high: true,
            },
            vec![],
        );
        let r3 = rule(
            3,
            Trigger::ChannelLevel {
                channel: Channel::Temperature,
                location: L::Kitchen,
                high: false,
            },
            vec![],
        );
        assert!(r1.can_trigger(&r2));
        assert!(!r1.can_trigger(&r3), "heater cannot lower temperature");
    }

    #[test]
    fn time_and_manual_triggers_never_correlate() {
        let r1 = rule(
            1,
            Trigger::Manual,
            vec![Command {
                device: dev(K::Light, L::Kitchen),
                activate: true,
            }],
        );
        let r2 = rule(2, Trigger::Time { hour: 7 }, vec![]);
        let r3 = rule(3, Trigger::Manual, vec![]);
        assert!(!r1.can_trigger(&r2));
        assert!(!r1.can_trigger(&r3));
    }

    #[test]
    fn phrases_read_naturally() {
        let t = Trigger::ChannelLevel {
            channel: Channel::Smoke,
            location: L::Kitchen,
            high: true,
        };
        assert_eq!(trigger_phrase(&t), "smoke is detected in the kitchen");
        let c = Command {
            device: dev(K::WaterValve, L::Kitchen),
            activate: false,
        };
        assert_eq!(command_phrase(&c), "close the kitchen water valve");
        let c2 = Command {
            device: dev(K::Light, L::Bedroom),
            activate: true,
        };
        assert_eq!(command_phrase(&c2), "turn the bedroom light on");
    }
}
